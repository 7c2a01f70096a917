package wire

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/trace"
)

const chaosTimeout = 30 * time.Second

// carrierState is the agent state of the chaos matmul program: one row of
// an integer matrix A riding around the PE cycle, accumulating nothing —
// every result it produces is a pure function of the carried row and the
// visited node's variables, written idempotently, so a step replayed from
// its checkpoint after a crash recomputes byte-identical values.
type carrierState struct {
	Row     int     // global row index of A carried by this agent
	Vals    []int64 // the row of A
	Visited int     // PEs completed (also the agent's progress cursor)
}

func init() {
	RegisterState(&carrierState{})

	// chaosCarrier computes, on each PE p, the partial products of its row
	// against the B columns stored at p, then hops to the next PE in the
	// cycle. Integer arithmetic keeps every run bit-identical no matter
	// how faults reorder or replay the steps.
	Register("chaosCarrier", func(ctx *Ctx) Verdict {
		st := ctx.State().(*carrierState)
		bcols := ctx.Get("Bint").([][]int64)
		c := make([]int64, len(bcols))
		for lj, col := range bcols {
			for k, a := range st.Vals {
				c[lj] += a * col[k]
			}
		}
		ctx.Set(fmt.Sprintf("Cint:%d", st.Row), c)
		st.Visited++
		if st.Visited >= ctx.Nodes() {
			return ctx.Done()
		}
		return ctx.HopTo((ctx.NodeID() + 1) % ctx.Nodes())
	})
}

// intMatrices builds deterministic integer A and B and the reference
// product C = A·B.
func intMatrices(n int, seed int64) (a, b, want [][]int64) {
	rng := rand.New(rand.NewSource(seed))
	a, b = make([][]int64, n), make([][]int64, n)
	for i := 0; i < n; i++ {
		a[i], b[i] = make([]int64, n), make([]int64, n)
		for j := 0; j < n; j++ {
			a[i][j] = int64(rng.Intn(19) - 9)
			b[i][j] = int64(rng.Intn(19) - 9)
		}
	}
	want = make([][]int64, n)
	for i := 0; i < n; i++ {
		want[i] = make([]int64, n)
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				want[i][j] += a[i][k] * b[k][j]
			}
		}
	}
	return a, b, want
}

// injectUnderKills is inject for clusters whose plan kills daemons: an
// injection aimed at a dead daemon fails, exactly as it does against a
// dead process, and the caller re-places it once the supervisor has the
// node back. An acknowledgement lost to a kill that fired on the
// injection itself leaves the agent durable and retried — a duplicate,
// which the callers' agents tolerate (idempotent writes, and every agent
// balances its own counters). job 0 is the default namespace.
func injectUnderKills(t *testing.T, cl *Cluster, node int, job uint64, behavior string, state any) {
	t.Helper()
	deadline := time.Now().Add(chaosTimeout)
	for {
		err := cl.inject(node, job, behavior, state)
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("injection on node %d never acknowledged: %v", node, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// runChaosMatMul executes the carrier matmul on a cluster with the given
// fault plan and returns the collected product, gathered from the
// node-resident stores after quiescence.
func runChaosMatMul(t *testing.T, n, pes int, opts Options) [][]int64 {
	t.Helper()
	a, b, _ := intMatrices(n, 41)
	cl, err := NewClusterOpts(pes, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	colsPerPE := n / pes
	for pe := 0; pe < pes; pe++ {
		bcols := make([][]int64, colsPerPE)
		for lj := range bcols {
			col := make([]int64, n)
			for k := 0; k < n; k++ {
				col[k] = b[k][pe*colsPerPE+lj]
			}
			bcols[lj] = col
		}
		setVar(t, cl, pe, "Bint", bcols)
	}
	for i := 0; i < n; i++ {
		injectUnderKills(t, cl, i%pes, 0, "chaosCarrier", &carrierState{Row: i, Vals: a[i]})
	}
	if err := cl.Wait(chaosTimeout); err != nil {
		t.Fatal(err)
	}

	got := make([][]int64, n)
	for i := range got {
		got[i] = make([]int64, n)
	}
	for pe := 0; pe < pes; pe++ {
		for i := 0; i < n; i++ {
			crow, ok := getVar(t, cl, pe, fmt.Sprintf("Cint:%d", i)).([]int64)
			if !ok {
				t.Fatalf("PE %d has no result for row %d", pe, i)
			}
			copy(got[i][pe*colsPerPE:], crow)
		}
	}
	return got
}

// TestChaosMatMul is the chaos suite: the same distributed integer matmul
// under a table of seeded fault plans — frame drops, heavy duplication,
// delays, every daemon killed once mid-run, and all of it combined — must
// terminate and produce the exact reference product every time.
func TestChaosMatMul(t *testing.T) {
	const n, pes = 8, 4
	_, _, want := intMatrices(n, 41)

	cases := []struct {
		name string
		plan *fault.Plan
	}{
		{"baseline", nil},
		{"drop-1pct", &fault.Plan{Seed: 101, Drop: 0.01}},
		{"drop-heavy", &fault.Plan{Seed: 102, Drop: 0.25}},
		{"dup-10x", &fault.Plan{Seed: 103, Dup: 10}},
		{"delay-jitter", &fault.Plan{Seed: 104, Delay: 0.5, MaxDelay: 0.003}},
		{"kill-each-daemon-once", &fault.Plan{Seed: 105, Kills: []fault.Kill{
			{Node: 0, AfterArrivals: 4}, {Node: 1, AfterArrivals: 5},
			{Node: 2, AfterArrivals: 6}, {Node: 3, AfterArrivals: 7},
		}}},
		{"combined", &fault.Plan{Seed: 106, Drop: 0.05, Dup: 2, Delay: 0.2, MaxDelay: 0.002,
			Kills: []fault.Kill{{Node: 1, AfterArrivals: 5}, {Node: 3, AfterArrivals: 9}}}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			got := runChaosMatMul(t, n, pes, Options{
				Fault:      tc.plan,
				AckTimeout: 100 * time.Millisecond,
			})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("product differs from reference under plan %v:\ngot  %v\nwant %v",
					tc.plan, got, want)
			}
		})
	}
}

// TestKillRecoveryBitIdentical is the acceptance scenario: a wire matmul
// with one daemon killed mid-computation must recover from checkpoints
// and produce a result bit-identical to the undisturbed run, and the
// trace must show the kill and the recovery.
func TestKillRecoveryBitIdentical(t *testing.T) {
	const n, pes = 8, 4
	clean := runChaosMatMul(t, n, pes, Options{})

	rec := trace.New()
	plan := &fault.Plan{Seed: 7, Kills: []fault.Kill{{Node: 2, AfterArrivals: 5}}}
	chaotic := runChaosMatMul(t, n, pes, Options{Fault: plan, Tracer: rec})

	if !reflect.DeepEqual(clean, chaotic) {
		t.Fatalf("recovered product differs from clean run:\nclean   %v\nchaotic %v", clean, chaotic)
	}
	st := rec.Stats()
	if st.Kills < 1 {
		t.Fatalf("no kill recorded (stats %+v)", st)
	}
	if st.Recovers < 1 {
		t.Fatalf("kill recorded but no recovery (stats %+v)", st)
	}
	// An independently constructed copy of the plan must make identical
	// decisions: fault verdicts are pure functions of the seed.
	replay := &fault.Plan{Seed: 7, Kills: []fault.Kill{{Node: 2, AfterArrivals: 5}}}
	for attempt := uint64(0); attempt < 4; attempt++ {
		if replay.Decide(0, 1, 42, attempt) != plan.Decide(0, 1, 42, attempt) {
			t.Fatal("fault plan decisions are not deterministic")
		}
	}
}

// TestDropsAreRetriedAndTraced checks the retry path end to end: under a
// heavy drop plan the run still completes, and the tracer observed both
// the drops and the retransmissions that repaired them.
func TestDropsAreRetriedAndTraced(t *testing.T) {
	rec := trace.New()
	got := runChaosMatMul(t, 6, 3, Options{
		Fault:      &fault.Plan{Seed: 11, Drop: 0.3},
		AckTimeout: 100 * time.Millisecond,
		Tracer:     rec,
	})
	_, _, want := intMatrices(6, 41)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("product wrong under drops")
	}
	st := rec.Stats()
	if st.Drops == 0 || st.Retries == 0 {
		t.Fatalf("drop plan produced drops=%d retries=%d", st.Drops, st.Retries)
	}
	if st.Hops == 0 {
		t.Fatalf("no successful hops traced")
	}
}

// TestDuplicatedHopsCountOnce drives tenfold duplication and checks the
// termination counters: receiver dedup must keep received == sent even
// though every frame crossed the wire eleven times.
func TestDuplicatedHopsCountOnce(t *testing.T) {
	const n, pes = 6, 3
	a, b, want := intMatrices(n, 41)
	cl, err := NewClusterOpts(pes, Options{Fault: &fault.Plan{Seed: 21, Dup: 10}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	colsPerPE := n / pes
	for pe := 0; pe < pes; pe++ {
		bcols := make([][]int64, colsPerPE)
		for lj := range bcols {
			col := make([]int64, n)
			for k := 0; k < n; k++ {
				col[k] = b[k][pe*colsPerPE+lj]
			}
			bcols[lj] = col
		}
		setVar(t, cl, pe, "Bint", bcols)
	}
	for i := 0; i < n; i++ {
		inject(t, cl, i%pes, "chaosCarrier", &carrierState{Row: i, Vals: a[i]})
	}
	if err := cl.Wait(chaosTimeout); err != nil {
		t.Fatal(err)
	}
	var total counters
	for _, ns := range states(cl) {
		total.add(ns.counters())
	}
	if total.Created != int64(n) || total.Finished != int64(n) {
		t.Fatalf("created/finished = %d/%d, want %d/%d", total.Created, total.Finished, n, n)
	}
	if total.Sent != total.Received {
		t.Fatalf("sent %d != received %d under duplication", total.Sent, total.Received)
	}
	for pe := 0; pe < pes; pe++ {
		for i := 0; i < n; i++ {
			crow := getVar(t, cl, pe, fmt.Sprintf("Cint:%d", i)).([]int64)
			for lj, v := range crow {
				if v != want[i][pe*colsPerPE+lj] {
					t.Fatalf("C[%d][%d] = %d, want %d", i, pe*colsPerPE+lj, v, want[i][pe*colsPerPE+lj])
				}
			}
		}
	}
}

// TestCheckpointsDrainAfterQuiescence: when Wait declares termination, no
// agent may still hold a checkpoint anywhere — the stores must be empty.
func TestCheckpointsDrainAfterQuiescence(t *testing.T) {
	const n, pes = 6, 3
	runChaosMatMulInto := func(opts Options) *Cluster {
		a, b, _ := intMatrices(n, 41)
		cl, err := NewClusterOpts(pes, opts)
		if err != nil {
			t.Fatal(err)
		}
		colsPerPE := n / pes
		for pe := 0; pe < pes; pe++ {
			bcols := make([][]int64, colsPerPE)
			for lj := range bcols {
				col := make([]int64, n)
				for k := 0; k < n; k++ {
					col[k] = b[k][pe*colsPerPE+lj]
				}
				bcols[lj] = col
			}
			setVar(t, cl, pe, "Bint", bcols)
		}
		for i := 0; i < n; i++ {
			inject(t, cl, i%pes, "chaosCarrier", &carrierState{Row: i, Vals: a[i]})
		}
		return cl
	}
	cl := runChaosMatMulInto(Options{Fault: &fault.Plan{Seed: 31, Drop: 0.1, Dup: 1},
		AckTimeout: 100 * time.Millisecond})
	defer cl.Close()
	if err := cl.Wait(chaosTimeout); err != nil {
		t.Fatal(err)
	}
	for i, ns := range states(cl) {
		if p := ns.pendingCheckpoints(); p != 0 {
			t.Fatalf("node %d still holds %d checkpoints after quiescence", i, p)
		}
	}
}

// TestFaultPlanValidation: a plan killing a node outside the cluster is
// rejected at construction.
func TestFaultPlanValidation(t *testing.T) {
	_, err := NewClusterOpts(2, Options{Fault: &fault.Plan{Kills: []fault.Kill{{Node: 5}}}})
	if err == nil {
		t.Fatal("out-of-range kill accepted")
	}
}
