//navplint:exempt simsafe
//
// The autotuner is the one place the matrix substrate reads the wall
// clock: it exists to *measure* this host's kernel, so wall time is its
// subject matter, not a reproducibility leak. Nothing here runs inside
// a simulation — the sim consumes the tuner's output (a flop rate) as a
// machine-model parameter, never the clock itself.

package matrix

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// Per-host autotuning of the GEMM cache-blocking parameters (MC/KC/NC)
// per micro-kernel variant. `paperbench -tune` runs the search
// explicitly and persists the winner under os.UserCacheDir(), keyed by
// a CPU signature; Kernel.config loads the cached result lazily, so a
// tuned host transparently runs tables and benchmarks with its best
// parameters while an untuned host gets the variant defaults. The cache
// self-invalidates when the CPU model, feature set, GOARCH, or schema
// changes (the signature is part of the file name and re-checked in the
// payload).

// tuneSchema versions the cache format; bump it when the search space
// or file layout changes so stale caches are ignored, not misread.
const tuneSchema = 2

// TuneTrial is one measured (variant, MC, KC, NC) point.
type TuneTrial struct {
	Variant string  `json:"variant"`
	MC      int     `json:"mc"`
	KC      int     `json:"kc"`
	NC      int     `json:"nc"`
	GFlops  float64 `json:"gflops"`
}

// TuneFile is the on-disk autotune cache: the best parameters per
// variant plus every trial, bound to the host signature that produced
// them.
type TuneFile struct {
	Schema   int         `json:"schema"`
	CPU      string      `json:"cpu"`
	GOARCH   string      `json:"goarch"`
	Features []string    `json:"features"`
	N        int         `json:"n"`
	Best     []TuneTrial `json:"best"`
	Trials   []TuneTrial `json:"trials"`
}

// hostSignature condenses everything that invalidates a tuning result
// into a short stable token used in the cache file name.
func hostSignature() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%v", tuneSchema, CPUModel(), runtime.GOARCH, CPUFeatures())
	for _, v := range kernelVariants() {
		fmt.Fprintf(h, "|%s", v.name)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TuneCachePath returns the autotune cache location for this host:
// <UserCacheDir>/navp-repro/gemmtune-<signature>-<GOARCH>.json.
func TuneCachePath() (string, error) {
	dir, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("matrix: no user cache dir: %w", err)
	}
	name := fmt.Sprintf("gemmtune-%s-%s.json", hostSignature(), runtime.GOARCH)
	return filepath.Join(dir, "navp-repro", name), nil
}

// SaveTune persists a tuning result to the per-host cache and returns
// the path written.
func SaveTune(f *TuneFile) (string, error) {
	path, err := TuneCachePath()
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return "", err
	}
	// Write-to-temp then rename, like the wire persister: a crash (or a
	// concurrent tuner on the same host) mid-write must never leave a
	// truncated cache at the final path — rename on the same filesystem
	// is atomic, so readers see the old file or the new one, never a
	// torn one.
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", err
	}
	t := loadTuned() // make the new parameters visible in-process
	tuned.Store(&t)
	return path, nil
}

// LoadTune reads the per-host cache, or ok=false when none exists or it
// was written by a different host/schema (the payload is re-validated,
// not just the file name).
func LoadTune() (f *TuneFile, path string, ok bool) {
	path, err := TuneCachePath()
	if err != nil {
		return nil, "", false
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, path, false
	}
	var tf TuneFile
	if json.Unmarshal(data, &tf) != nil {
		return nil, path, false
	}
	if tf.Schema != tuneSchema || tf.CPU != CPUModel() || tf.GOARCH != runtime.GOARCH {
		return nil, path, false
	}
	return &tf, path, true
}

// tuned is the per-variant blocking from the autotune cache, published
// as an immutable snapshot: Kernel.config reads it on every multiply
// (once per block product on the fine-grained paper stages, from every
// PE at once), so a read is one atomic load, never a lock. nil means
// not loaded yet; the first reader loads the file.
var tuned atomic.Pointer[map[string][3]int]

// loadTuned reads the per-host cache into a fresh table.
func loadTuned() map[string][3]int {
	best := map[string][3]int{}
	if f, _, ok := LoadTune(); ok {
		for _, b := range f.Best {
			if b.MC > 0 && b.KC > 0 && b.NC > 0 {
				best[b.Variant] = [3]int{b.MC, b.KC, b.NC}
			}
		}
	}
	return best
}

// tunedTable returns the current snapshot, loading it on first use.
// A reader fills only an empty slot and SaveTune stores its table
// unconditionally, so a reader that read the file before a SaveTune
// cannot replace the table SaveTune published.
func tunedTable() map[string][3]int {
	if t := tuned.Load(); t != nil {
		return *t
	}
	t := loadTuned()
	tuned.CompareAndSwap(nil, &t)
	return t
}

// tunedFor returns the cache-blocking parameters for a variant: the
// per-host tuned values when the cache has them, the variant defaults
// otherwise.
func tunedFor(v *microKernel) (mc, kc, nc int) {
	if b, ok := tunedTable()[v.name]; ok {
		return b[0], b[1], b[2]
	}
	return v.mc, v.kc, v.nc
}

// tunedSource reports where a variant's parameters come from: "tuned"
// (autotune cache) or "default".
func tunedSource(v *microKernel) string {
	if _, ok := tunedTable()[v.name]; ok {
		return "tuned"
	}
	return "default"
}

// measureGFlops times reps n×n multiplies under the given variant and
// blocking and returns the best observed GFLOP/s (best-of filters
// scheduler noise; the autotuner compares points, it does not certify
// throughput).
func measureGFlops(v *microKernel, mc, kc, nc, n, reps int) float64 {
	x, y := RandomPair(NewSeeded(2), n)
	k := Kernel{mc: mc, kc: kc, nc: nc, variant: v}
	flops := 2 * float64(n) * float64(n) * float64(n)
	best := 0.0
	for r := 0; r < reps; r++ {
		start := time.Now()
		tuneSink = k.Mul(x, y)
		if s := time.Since(start).Seconds(); s > 0 {
			if g := flops / s / 1e9; g > best {
				best = g
			}
		}
	}
	return best
}

// tuneSink defeats dead-code elimination of the measurement multiplies.
var tuneSink *Dense

// TuneOptions configures an autotune search.
type TuneOptions struct {
	// N is the problem size measured; 0 means 768 (384 under Quick).
	N int
	// Reps is best-of repetitions per point; 0 means 2 (1 under Quick).
	Reps int
	// Quick shrinks the search for smoke tests.
	Quick bool
	// Progress, if non-nil, receives one line per measured point.
	Progress func(TuneTrial)
}

// TuneSearch measures the MC/KC/NC space for every micro-kernel variant
// this host can execute and returns the full table with per-variant
// winners. The search is staged to stay fast: an MC×KC grid at the
// default NC first, then an NC sweep at the winning MC/KC — the two
// dimensions interact only weakly because MC×KC targets L2 residency
// while NC bounds the packed-B working set.
func TuneSearch(opt TuneOptions) *TuneFile {
	n := opt.N
	if n == 0 {
		n = 768
		if opt.Quick {
			n = 384
		}
	}
	reps := opt.Reps
	if reps == 0 {
		reps = 2
		if opt.Quick {
			reps = 1
		}
	}
	mcCands := []int{96, 144, 192, 288}
	kcCands := []int{128, 192, 256, 384}
	ncCands := []int{1024, 2048, 4096}
	if opt.Quick {
		mcCands = []int{96, 192}
		kcCands = []int{192, 256}
		ncCands = []int{2048}
	}
	f := &TuneFile{
		Schema: tuneSchema, CPU: CPUModel(), GOARCH: runtime.GOARCH,
		Features: CPUFeatures(), N: n,
	}
	for _, v := range kernelVariants() {
		try := func(mc, kc, nc int) TuneTrial {
			mc, nc = roundUp(mc, v.mr), roundUp(nc, v.nr)
			t := TuneTrial{Variant: v.name, MC: mc, KC: kc, NC: nc,
				GFlops: measureGFlops(v, mc, kc, nc, n, reps)}
			f.Trials = append(f.Trials, t)
			if opt.Progress != nil {
				opt.Progress(t)
			}
			return t
		}
		best := TuneTrial{Variant: v.name}
		for _, mc := range mcCands {
			for _, kc := range kcCands {
				if t := try(mc, kc, v.nc); t.GFlops > best.GFlops {
					best = t
				}
			}
		}
		for _, nc := range ncCands {
			if roundUp(nc, v.nr) == best.NC {
				continue
			}
			if t := try(best.MC, best.KC, nc); t.GFlops > best.GFlops {
				best = t
			}
		}
		f.Best = append(f.Best, best)
	}
	sort.Slice(f.Best, func(i, j int) bool { return f.Best[i].GFlops > f.Best[j].GFlops })
	return f
}

// MeasureActiveRate measures the flop rate (flop/s) of the zero-value
// Kernel — the dispatcher's variant with this host's tuned or default
// blocking — at order n. The modern machine model (machine.Modern)
// takes this as its CPURate, closing the loop between the measured
// kernel and the simulated tables.
func MeasureActiveRate(n, reps int) float64 {
	v, mc, kc, nc := Kernel{}.config()
	return measureGFlops(v, mc, kc, nc, n, reps) * 1e9
}
