//go:build !amd64

package matrix

// Non-amd64 hosts have no assembly micro-kernel: the dispatcher always
// selects the portable Go variant and NAVP_NOSIMD is a no-op.

// kern runs the portable micro-kernel on one full mr×nr tile (see
// microKernel).
func (v *microKernel) kern(kcc int, a []float64, rsa, csa int, b []float64, rsb int, c []float64, ldc int) {
	kernGo4x4(kcc, a, rsa, csa, b, rsb, c, ldc)
}

// activeVariant returns the micro-kernel the host runs with.
func activeVariant() *microKernel { return goKernel }

// kernelVariants lists every micro-kernel this host can execute.
func kernelVariants() []*microKernel { return []*microKernel{goKernel} }
