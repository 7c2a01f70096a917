// Command paperbench regenerates the evaluation tables and supporting
// experiments of "Incremental Parallelization Using Navigational
// Programming: A Case Study" (ICPP 2005) on the simulated testbed.
//
// Usage:
//
//	paperbench -table all          # Tables 1–4
//	paperbench -table 3 -compare   # Table 3 with the paper's values
//	paperbench -stagger            # §5(3) staggering phase counts
//	paperbench -ablations          # pointer-swap / overlap / block-size
//	paperbench -quick              # truncated tables (smoke test)
//	paperbench -regress            # measure the fast data paths and the NavP runtime, write BENCH_*.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/matmul"
	"repro/internal/matrix"
)

func main() {
	table := flag.String("table", "", "table to regenerate: 1, 2, 3, 4, or all")
	compare := flag.Bool("compare", false, "print the paper's published values next to the measured ones")
	quick := flag.Bool("quick", false, "truncate each table to its two smallest problem sizes")
	stagger := flag.Bool("stagger", false, "run the §5(3) staggering phase-count analysis")
	ablations := flag.Bool("ablations", false, "run the ablation experiments")
	report := flag.Bool("report", false, "emit the full markdown reproduction report (tables, staggering, ablations)")
	regress := flag.Bool("regress", false, "benchmark the fast data paths and the goroutine NavP runtime, write BENCH_kernels.json + BENCH_wire.json + BENCH_navp.json")
	regressOut := flag.String("regress-out", ".", "directory the -regress JSON files are written to")
	modern := flag.Bool("modern", false, "re-run the paper's tables on a modern machine model fed by this host's measured kernel rate, plus a real-backend anchor run")
	flag.Parse()

	if *table == "" && !*stagger && !*ablations && !*report && !*regress && !*modern {
		flag.Usage()
		os.Exit(2)
	}

	if *modern {
		if err := runModern(*quick); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *table == "" && !*stagger && !*ablations && !*report && !*regress {
			return
		}
	}

	opt := bench.Options{Quick: *quick}

	if *regress {
		if err := runRegress(*regressOut, *quick); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *table == "" && !*stagger && !*ablations && !*report {
			return
		}
	}

	if *report {
		out, err := bench.Report(opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(out)
		return
	}

	runners := map[string]func(bench.Options) (*bench.Table, error){
		"1": bench.Table1, "2": bench.Table2, "3": bench.Table3, "4": bench.Table4,
	}
	var order []string
	switch *table {
	case "":
	case "all":
		order = []string{"1", "2", "3", "4"}
	default:
		if _, ok := runners[*table]; !ok {
			fmt.Fprintf(os.Stderr, "unknown table %q\n", *table)
			os.Exit(2)
		}
		order = []string{*table}
	}
	for _, id := range order {
		t, err := runners[id](opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "table %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Print(t.Format())
		if *compare {
			printComparison(t)
		}
		fmt.Println()
	}

	if *stagger {
		out, err := bench.FormatStagger(2, 16)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(out)
	}

	if *ablations {
		runAblations(opt)
	}
}

// runModern re-runs the paper's table structure on the modern machine
// model (machine.Modern) with the CPU rate anchored to this host's
// measured kernel throughput, then closes the loop with a real-backend
// anchor: the same sequential-vs-NavP comparison executed as actual
// float64 GEMM through the dispatched kernel, wall-clock timed here
// (cmd/ is outside the sim domain, so reading the clock is lint-legal).
func runModern(quick bool) error {
	mn, mreps := 1024, 3
	if quick {
		mn, mreps = 512, 1
	}
	rate := matrix.MeasureActiveRate(mn, mreps)
	mc, kc, nc, _ := matrix.ActiveBlocking()
	fmt.Printf("measured kernel: %s at %.2f GFLOP/s (n=%d, mc=%d kc=%d nc=%d)\n\n",
		matrix.ActiveKernel(), rate/1e9, mn, mc, kc, nc)

	tables, err := bench.ModernTables(rate, quick)
	if err != nil {
		return err
	}
	for _, t := range tables {
		fmt.Print(t.Format())
		fmt.Println()
	}

	// Real-backend anchor: N chosen so NB=N/BS is divisible by P=3.
	n, bs := 1536, 256
	if quick {
		n, bs = 768, 128
	}
	seqS, err := timedReal(matmul.Sequential, n, bs, 1)
	if err != nil {
		return fmt.Errorf("real sequential: %w", err)
	}
	navS, err := timedReal(matmul.Phase1D, n, bs, 3)
	if err != nil {
		return fmt.Errorf("real 1D phase: %w", err)
	}
	gf := 2 * float64(n) * float64(n) * float64(n) / 1e9
	fmt.Printf("real backend anchor (N=%d, BS=%d, GOMAXPROCS=%d):\n", n, bs, runtime.GOMAXPROCS(0))
	fmt.Printf("  sequential      %8.3fs  %6.2f GFLOP/s\n", seqS, gf/seqS)
	fmt.Printf("  NavP 1D phase   %8.3fs  %6.2f GFLOP/s  (P=3 real goroutines; speedup %.2fx)\n",
		navS, gf/navS, seqS/navS)
	return nil
}

// timedReal wall-clock times one real-backend matmul run.
func timedReal(stage matmul.Stage, n, bs, p int) (float64, error) {
	cfg := matmul.Config{N: n, BS: bs, P: p, Real: true}
	start := time.Now()
	if _, err := matmul.Run(stage, cfg); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// runRegress measures the fast data paths and the goroutine NavP runtime
// (with -quick: shrunken sizes for CI smoke runs) and writes the
// machine-readable regression files.
func runRegress(dir string, quick bool) error {
	kernels := bench.RegressKernels(quick)
	if err := writeRegressFile(filepath.Join(dir, "BENCH_kernels.json"), kernels); err != nil {
		return err
	}
	fmt.Printf("kernel: %s, blocking mc=%d kc=%d nc=%d\n",
		kernels.Kernel, kernels.BlockMC, kernels.BlockKC, kernels.BlockNC)
	if n, ratio, err := kernels.KernelSpeedup(); err == nil {
		fmt.Printf("kernel vs naive at n=%d: %.2fx GFLOP/s\n", n, ratio)
	}
	wireFile, err := bench.RegressWire(quick)
	if err != nil {
		return err
	}
	if err := writeRegressFile(filepath.Join(dir, "BENCH_wire.json"), wireFile); err != nil {
		return err
	}
	navpFile, err := bench.RegressNavp(quick)
	if err != nil {
		return err
	}
	if err := writeRegressFile(filepath.Join(dir, "BENCH_navp.json"), navpFile); err != nil {
		return err
	}
	// Gates run after every file is written so a red run still leaves
	// the measurements on disk for diagnosis.
	violations := append(kernels.CheckGates(), wireFile.CheckGates()...)
	if violations = append(violations, navpFile.CheckGates()...); len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, v)
		}
		return fmt.Errorf("regression gates: %d violation(s)", len(violations))
	}
	fmt.Println("regression gates: pass")
	return nil
}

func writeRegressFile(path string, f *bench.RegressFile) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d results)\n", path, len(f.Results))
	return nil
}

func printComparison(t *bench.Table) {
	ref := bench.PaperReference(t.Name)
	if ref == nil {
		return
	}
	fmt.Printf("%s — paper's published values:\n", t.Name)
	for _, pr := range ref {
		var cells []string
		for _, col := range t.Columns {
			if e, ok := pr.Entries[col]; ok {
				cells = append(cells, fmt.Sprintf("%s %.2f (%.2f)", col, e.Seconds, e.Speedup))
			}
		}
		fmt.Printf("  N=%-5d seq %.2f | %s\n", pr.N, pr.SeqActual, strings.Join(cells, " | "))
	}
}

func runAblations(opt bench.Options) {
	type ab struct {
		title string
		run   func() ([]bench.AblationResult, error)
	}
	for _, a := range []ab{
		{"Pointer swapping vs local copies (Gentleman, N=3072, 3×3)", func() ([]bench.AblationResult, error) {
			return bench.AblationPointerSwap(opt, 3072, 128, 3, 80e6)
		}},
		{"Communication/computation overlap (N=3072, 3×3)", func() ([]bench.AblationResult, error) {
			return bench.AblationOverlap(opt, 3072, 128, 3)
		}},
		{"Algorithmic block size (NavP 2D phase, N=3072, 3×3)", func() ([]bench.AblationResult, error) {
			return bench.AblationBlockSize(opt, 3072, 3, []int{64, 128, 256, 512})
		}},
		{"Per-hop thread state (NavP 2D pipeline, N=3072, 3×3)", func() ([]bench.AblationResult, error) {
			return bench.AblationStateBytes(opt, 3072, 128, 3, []int64{64, 256, 1024, 4096, 16384})
		}},
		{"Heterogeneous cluster: one PE 1.5× slower (N=3072, 3×3)", func() ([]bench.AblationResult, error) {
			return bench.AblationHeterogeneity(opt, 3072, 128, 3, 1.5)
		}},
	} {
		res, err := a.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", a.title, err)
			os.Exit(1)
		}
		fmt.Print(bench.FormatAblation(a.title, res))
		fmt.Println()
	}
}
