package matmul

import (
	"testing"

	"repro/internal/trace"
)

// tracedRun executes a stage with a recorder attached and returns the
// recorder.
func tracedRun(t *testing.T, stage Stage, cfg Config) *trace.Recorder {
	t.Helper()
	rec := trace.New()
	cfg.Tracer = rec
	if _, err := Run(stage, cfg); err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestDSC1DCommunicationVolumeExact(t *testing.T) {
	// Closed form for the 1-D DSC carrier (Figure 5 with the dead-row
	// optimization): per block row, P−1 loaded hops carrying the row
	// (N·BS elements) plus thread state; plus NB−1 empty wrap-around
	// hops back to node 0 carrying state only.
	cfg := testConfig(96, 8, 3)
	cfg.Phantom = true
	rec := tracedRun(t, DSC1D, cfg)

	nb := cfg.N / cfg.BS
	state := cfg.NavP.StateBytes
	rowBytes := int64(cfg.N) * int64(cfg.BS) * int64(cfg.HW.ElemBytes)

	wantHops := nb*(cfg.P-1) + (nb - 1)
	wantBytes := int64(nb)*int64(cfg.P-1)*(rowBytes+state) + int64(nb-1)*state

	st := rec.Stats()
	if st.Hops != wantHops {
		t.Errorf("hops = %d, want %d", st.Hops, wantHops)
	}
	if st.HopBytes != wantBytes {
		t.Errorf("hop bytes = %d, want %d", st.HopBytes, wantBytes)
	}
	// The movement pattern is a ring: 0→1, 1→2, and the wrap 2→0.
	m := rec.HopMatrix(cfg.P)
	for from := 0; from < cfg.P; from++ {
		for to := 0; to < cfg.P; to++ {
			legal := to == (from+1)%cfg.P
			if (m[from][to] > 0) != legal {
				t.Errorf("unexpected transfer pattern: %d→%d carried %d bytes", from, to, m[from][to])
			}
		}
	}
}

func TestPipeline1DCommunicationVolumeExact(t *testing.T) {
	// NB carriers each make P−1 loaded hops; the injector never moves.
	cfg := testConfig(96, 8, 3)
	cfg.Phantom = true
	rec := tracedRun(t, Pipeline1D, cfg)

	nb := cfg.N / cfg.BS
	state := cfg.NavP.StateBytes
	rowBytes := int64(cfg.N) * int64(cfg.BS) * int64(cfg.HW.ElemBytes)

	st := rec.Stats()
	if want := nb * (cfg.P - 1); st.Hops != want {
		t.Errorf("hops = %d, want %d", st.Hops, want)
	}
	if want := int64(nb) * int64(cfg.P-1) * (rowBytes + state); st.HopBytes != want {
		t.Errorf("hop bytes = %d, want %d", st.HopBytes, want)
	}
}

func TestPhase2DCarrierVolumeExact(t *testing.T) {
	// In full 2-D DPC every loaded hop of an ACarrier or BCarrier moves
	// exactly one algorithmic block plus state; the injector and
	// spawners move with state only. So total bytes = loadedHops ×
	// (blockBytes + state) + emptyHops × state, and the split is
	// recoverable from the totals.
	cfg := testConfig(48, 8, 3)
	cfg.Phantom = true
	rec := tracedRun(t, Phase2D, cfg)

	state := cfg.NavP.StateBytes
	blockBytes := int64(cfg.BS) * int64(cfg.BS) * int64(cfg.HW.ElemBytes)

	var loaded, empty int
	for _, ev := range rec.Events() {
		if ev.Kind != trace.TraceHop {
			continue
		}
		switch ev.Bytes {
		case blockBytes + state:
			loaded++
		case state:
			empty++
		default:
			t.Fatalf("hop with unexpected payload %d (block %d, state %d)", ev.Bytes, blockBytes, state)
		}
	}
	st := rec.Stats()
	if loaded+empty != st.Hops {
		t.Fatalf("hop classification lost events: %d+%d != %d", loaded, empty, st.Hops)
	}
	// Each of the 2·NB² carriers crosses PE boundaries while sweeping NB
	// virtual cells laid out in P contiguous chunks: the cyclic sweep
	// crosses P−1 to P boundaries, plus possibly one initial hop from the
	// carrier's home cell to its phase-shifted entry point.
	nb := cfg.N / cfg.BS
	carriers := 2 * nb * nb
	if loaded < carriers*(cfg.P-1) || loaded > carriers*(cfg.P+1) {
		t.Errorf("loaded hops = %d, want within [%d, %d]", loaded, carriers*(cfg.P-1), carriers*(cfg.P+1))
	}
}

func TestNoSelfHopsRecorded(t *testing.T) {
	// Hops to the current node are free and must not be traced — the
	// MESSENGERS daemon short-cuts them (and the paper's §3.6 pointer
	// swapping is the MPI analogue).
	for _, stage := range Stages {
		cfg := testConfig(48, 8, 3)
		cfg.Phantom = true
		rec := tracedRun(t, stage, cfg)
		for _, ev := range rec.Events() {
			if ev.Kind == trace.TraceHop && ev.From == ev.To {
				t.Fatalf("%v: self-hop recorded on PE %d", stage, ev.From)
			}
		}
	}
}

func TestHopMatrixConservesBytes(t *testing.T) {
	for _, stage := range []Stage{DSC1D, Phase1D, DSC2D, Pipeline2D, Phase2D} {
		cfg := testConfig(48, 8, 3)
		cfg.Phantom = true
		rec := tracedRun(t, stage, cfg)
		pes := cfg.P
		if stage.TwoDimensional() {
			pes = cfg.P * cfg.P
		}
		var total int64
		for _, row := range rec.HopMatrix(pes) {
			for _, b := range row {
				total += b
			}
		}
		if st := rec.Stats(); total != st.HopBytes {
			t.Errorf("%v: matrix total %d != stats total %d", stage, total, st.HopBytes)
		}
	}
}

func TestComputeTimeMatchesFlops(t *testing.T) {
	// Summed compute spans across all agents must equal the algorithm's
	// total flops over the CPU rate — no stage may lose or duplicate
	// work. (Compute spans exclude queue wait.)
	for _, stage := range Stages {
		cfg := testConfig(48, 8, 3)
		cfg.Phantom = true
		rec := tracedRun(t, stage, cfg)
		n := float64(cfg.N)
		want := 2 * n * n * n / cfg.HW.CPURate
		got := rec.Stats().ComputeTime
		if got < want*0.999 || got > want*1.001 {
			t.Errorf("%v: compute time %.6f, want %.6f", stage, got, want)
		}
	}
}
