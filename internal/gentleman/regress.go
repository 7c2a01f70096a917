package gentleman

// BenchFine runs n solves of paper-fine's problem (N=512, BS=16, seed
// 1) with Gentleman's Algorithm on a 2×2 grid of ranks on the goroutine
// mp backend: the MPI baseline paper-fine's NavP Phase2D is held
// against. The regression suite's BenchmarkGentlemanFine row
// (internal/bench.RegressNavp) and this package's go-test benchmark of
// the same name share it, so both time the same program.
func BenchFine(n int) error {
	cfg := Config{N: 512, BS: 16, P: 2, Real: true, Seed: 1}
	for i := 0; i < n; i++ {
		if _, err := Run(Gentleman, cfg); err != nil {
			return err
		}
	}
	return nil
}
