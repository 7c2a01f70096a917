//go:build !amd64

package matrix

import "runtime"

// Non-amd64 hosts have no CPUID and no assembly micro-kernel; the
// dispatcher always selects the portable Go variant.

// CPUModel reports the host processor, recorded in the
// BENCH_kernels.json header. Without CPUID the architecture name is the
// best portable identity available.
func CPUModel() string { return runtime.GOARCH }

// CPUFeatures reports the detected ISA features relevant to the kernel
// dispatcher; none are probed on non-amd64 hosts.
func CPUFeatures() []string { return nil }

// cpuHasAVX2FMA reports whether the AVX2+FMA assembly micro-kernel can
// run on this host.
func cpuHasAVX2FMA() bool { return false }

// cpuHasAVX512 reports whether the AVX-512F assembly micro-kernel can
// run on this host.
func cpuHasAVX512() bool { return false }
