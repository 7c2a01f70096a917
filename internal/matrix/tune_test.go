package matrix

import (
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

// useTempTuneCache points os.UserCacheDir at a per-test directory and
// resets the in-process tuned view, so tests neither read nor pollute
// the real per-host cache.
func useTempTuneCache(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	t.Setenv("XDG_CACHE_HOME", dir)
	resetTunedCache()
	t.Cleanup(resetTunedCache)
	return dir
}

// resetTunedCache drops the tuned snapshot, so the next reader reloads
// the cache file.
func resetTunedCache() { tuned.Store(nil) }

// TestTuneCacheRoundTrip pins the autotune cache contract end to end:
// an untuned host resolves defaults, SaveTune makes the tuned
// parameters take effect (a cache hit through Kernel.config), and a
// cache written by a different schema or host is rejected rather than
// half-applied.
func TestTuneCacheRoundTrip(t *testing.T) {
	useTempTuneCache(t)

	v := activeVariant()
	dmc, dkc, dnc := v.mc, v.kc, v.nc
	if mc, kc, nc := tunedFor(v); mc != dmc || kc != dkc || nc != dnc {
		t.Fatalf("untuned host: got %d/%d/%d want defaults %d/%d/%d", mc, kc, nc, dmc, dkc, dnc)
	}
	if src := tunedSource(v); src != "default" {
		t.Fatalf("untuned source = %q, want default", src)
	}

	want := [3]int{roundUp(120, v.mr), 192, roundUp(1536, v.nr)}
	f := &TuneFile{
		Schema: tuneSchema, CPU: CPUModel(), GOARCH: runtime.GOARCH, N: 64,
		Best: []TuneTrial{{Variant: v.name, MC: want[0], KC: want[1], NC: want[2], GFlops: 1}},
	}
	path, err := SaveTune(f)
	if err != nil {
		t.Fatalf("SaveTune: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("cache file missing: %v", err)
	}
	if filepath.Ext(path) != ".json" {
		t.Fatalf("cache path %q not a .json file", path)
	}

	// The hit must flow through the real resolution path Kernel.config
	// uses, not just the loader.
	got, src := func() ([3]int, string) {
		_, mc, kc, nc := Kernel{}.config()
		return [3]int{mc, kc, nc}, tunedSource(v)
	}()
	if got != want {
		t.Fatalf("tuned host: got %v want %v", got, want)
	}
	if src != "tuned" {
		t.Fatalf("tuned source = %q, want tuned", src)
	}

	// A correct multiply under the tuned blocking (odd panel sizes vs n).
	a, b := RandomPair(NewSeeded(3), 70)
	equalOrBothNaN(t, (Kernel{}).Mul(a, b), mulNaive(a, b), kernelTol(70))

	// Stale schema must be ignored, falling back to defaults.
	f.Schema = tuneSchema - 1
	if _, err := SaveTune(f); err != nil {
		t.Fatalf("SaveTune stale: %v", err)
	}
	if mc, kc, nc := tunedFor(v); mc != dmc || kc != dkc || nc != dnc {
		t.Fatalf("stale schema honored: got %d/%d/%d want defaults", mc, kc, nc)
	}

	// A cache from a different CPU must likewise be rejected.
	f.Schema, f.CPU = tuneSchema, "some-other-cpu"
	if _, err := SaveTune(f); err != nil {
		t.Fatalf("SaveTune other-cpu: %v", err)
	}
	if _, _, ok := LoadTune(); ok {
		t.Fatal("cache from a different CPU model was accepted")
	}
}

// TestTuneCacheCorruptionRecovers pins the durability contract SaveTune
// gained with the tmp+rename write: a corrupt (torn, truncated, or
// garbage) cache at the final path is rejected cleanly by every reader,
// and the next SaveTune replaces it atomically — no reader ever sees
// the half-state, and no stale .tmp file lingers.
func TestTuneCacheCorruptionRecovers(t *testing.T) {
	useTempTuneCache(t)
	v := activeVariant()
	dmc, dkc, dnc := v.mc, v.kc, v.nc

	path, err := TuneCachePath()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	// A truncated JSON prefix — what a bare WriteFile interrupted by a
	// crash used to leave behind.
	if err := os.WriteFile(path, []byte(`{"schema":2,"cpu":"`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := LoadTune(); ok {
		t.Fatal("LoadTune accepted a truncated cache")
	}
	resetTunedCache()
	if mc, kc, nc := tunedFor(v); mc != dmc || kc != dkc || nc != dnc {
		t.Fatalf("corrupt cache leaked into blocking: got %d/%d/%d want defaults %d/%d/%d",
			mc, kc, nc, dmc, dkc, dnc)
	}

	// SaveTune over the corrupt file must fully replace it.
	want := [3]int{roundUp(120, v.mr), 192, roundUp(1536, v.nr)}
	f := &TuneFile{
		Schema: tuneSchema, CPU: CPUModel(), GOARCH: runtime.GOARCH, N: 64,
		Best: []TuneTrial{{Variant: v.name, MC: want[0], KC: want[1], NC: want[2], GFlops: 1}},
	}
	if _, err := SaveTune(f); err != nil {
		t.Fatalf("SaveTune over corrupt cache: %v", err)
	}
	if got, _, ok := LoadTune(); !ok || len(got.Best) != 1 || got.Best[0].MC != want[0] {
		t.Fatalf("recovered cache wrong: %+v ok=%v", got, ok)
	}
	if mc, kc, nc := tunedFor(v); [3]int{mc, kc, nc} != want {
		t.Fatalf("recovered blocking %d/%d/%d, want %v", mc, kc, nc, want)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind after SaveTune: %v", err)
	}
}

// TestTunedSnapshotConcurrentReaders reads the tuned blocking from
// several goroutines while SaveTune publishes a snapshot and
// resetTunedCache drops it. Under -race it pins that Kernel.config's
// lock-free read is synchronized; every reader must see the defaults or
// the saved parameters, never anything else.
func TestTunedSnapshotConcurrentReaders(t *testing.T) {
	useTempTuneCache(t)
	v := activeVariant()
	dmc, dkc, dnc := v.mc, v.kc, v.nc
	def := [3]int{dmc, dkc, dnc}
	want := [3]int{roundUp(120, v.mr), 192, roundUp(1536, v.nr)}
	f := &TuneFile{
		Schema: tuneSchema, CPU: CPUModel(), GOARCH: runtime.GOARCH, N: 64,
		Best: []TuneTrial{{Variant: v.name, MC: want[0], KC: want[1], NC: want[2], GFlops: 1}},
	}
	stop := make(chan struct{})
	bad := make(chan [3]int, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mc, kc, nc := tunedFor(v)
				if got := [3]int{mc, kc, nc}; got != def && got != want {
					bad <- got
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if _, err := SaveTune(f); err != nil {
			t.Error(err)
			break
		}
		resetTunedCache()
	}
	close(stop)
	wg.Wait()
	close(bad)
	for got := range bad {
		t.Fatalf("reader saw blocking %v, want defaults %v or tuned %v", got, def, want)
	}
	if mc, kc, nc := tunedFor(v); [3]int{mc, kc, nc} != want {
		t.Fatalf("after the last SaveTune: %d/%d/%d, want %v", mc, kc, nc, want)
	}
}

// TestTuneSearchQuick runs the real (shrunk) search and checks the
// result is well-formed: every executable variant gets a winner with
// legal blocking, and persisting it round-trips through LoadTune.
func TestTuneSearchQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("autotune search measures wall time")
	}
	useTempTuneCache(t)

	f := TuneSearch(TuneOptions{Quick: true, N: 96, Reps: 1})
	if len(f.Best) != len(kernelVariants()) {
		t.Fatalf("got %d winners, want one per variant (%d)", len(f.Best), len(kernelVariants()))
	}
	for _, b := range f.Best {
		v := variantByName(t, b.Variant)
		if b.MC <= 0 || b.KC <= 0 || b.NC <= 0 || b.MC%v.mr != 0 || b.NC%v.nr != 0 {
			t.Fatalf("winner %+v has illegal blocking for mr=%d nr=%d", b, v.mr, v.nr)
		}
		if b.GFlops <= 0 {
			t.Fatalf("winner %+v measured no throughput", b)
		}
	}
	if _, err := SaveTune(f); err != nil {
		t.Fatalf("SaveTune: %v", err)
	}
	got, _, ok := LoadTune()
	if !ok {
		t.Fatal("LoadTune missed a cache SaveTune just wrote")
	}
	if len(got.Trials) != len(f.Trials) {
		t.Fatalf("round-trip lost trials: %d != %d", len(got.Trials), len(f.Trials))
	}
}

func variantByName(t *testing.T, name string) *microKernel {
	t.Helper()
	for _, v := range kernelVariants() {
		if v.name == name {
			return v
		}
	}
	t.Fatalf("unknown variant %q", name)
	return nil
}
