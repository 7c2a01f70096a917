package wire

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/matrix"
)

const waitTimeout = 10 * time.Second

// ringState walks an agent around the ring a fixed number of laps.
type ringState struct {
	Hops, Laps int
	Sum        int64
}

func init() {
	RegisterState(&ringState{})
	RegisterState(&dotState{})
	RegisterState(&rowState{})
	// Node variables set from outside a daemon cross a gob frame inside an
	// interface value, so their dynamic types are registered like state.
	RegisterState([][]float64{})
	RegisterState([][]int64{})

	Register("ring", func(ctx *Ctx) Verdict {
		st := ctx.State().(*ringState)
		st.Sum += int64(ctx.NodeID())
		st.Hops++
		if st.Hops >= st.Laps*ctx.Nodes() {
			ctx.Set("ringsum", st.Sum)
			ctx.Signal("ringdone")
			return ctx.Done()
		}
		return ctx.HopTo((ctx.NodeID() + 1) % ctx.Nodes())
	})

	Register("dot", func(ctx *Ctx) Verdict {
		st := ctx.State().(*dotState)
		x := ctx.Get("x").([]float64)
		y := ctx.Get("y").([]float64)
		for i := range x {
			st.Sum += x[i] * y[i]
		}
		if ctx.NodeID() == ctx.Nodes()-1 {
			ctx.Set("result", st.Sum)
			return ctx.Done()
		}
		return ctx.HopTo(ctx.NodeID() + 1)
	})

	Register("boom", func(ctx *Ctx) Verdict {
		panic("deliberate")
	})

	Register("noverdict", func(ctx *Ctx) Verdict {
		return Verdict{}
	})

	Register("producer", func(ctx *Ctx) Verdict {
		ctx.Set("value", 99)
		ctx.Signal("ready")
		return ctx.Done()
	})
	Register("consumer", func(ctx *Ctx) Verdict {
		if ctx.NodeID() != 1 {
			return ctx.HopTo(1)
		}
		ctx.Wait("ready")
		ctx.Set("consumed", ctx.Get("value"))
		return ctx.Done()
	})
	Register("spawner", func(ctx *Ctx) Verdict {
		for i := 0; i < 5; i++ {
			ctx.Inject("ring", &ringState{Laps: 1})
		}
		return ctx.Done()
	})

	// RowCarrier: the paper's Figure 5 DSC over real sockets, at block
	// granularity one row at a time. State carries the current row of A
	// and the row index; B columns and C cells are node variables.
	Register("RowCarrier", func(ctx *Ctx) Verdict {
		st := ctx.State().(*rowState)
		bcols := ctx.Get("Bcols").([][]float64)
		c := make([]float64, len(bcols))
		for j, col := range bcols {
			for k, a := range st.Row {
				c[j] += a * col[k]
			}
		}
		ctx.Set(fmt.Sprintf("Crow:%d", st.Mi), c)
		if ctx.NodeID() < ctx.Nodes()-1 {
			return ctx.HopTo(ctx.NodeID() + 1)
		}
		// Row finished on the last node; next row starts at node 0.
		if st.Mi+1 < st.Rows {
			next := &rowState{Mi: st.Mi + 1, Rows: st.Rows, Row: st.NextRows[0]}
			next.NextRows = st.NextRows[1:]
			ctx.SetState(next)
			return ctx.HopTo(0)
		}
		ctx.Signal("alldone")
		return ctx.Done()
	})
}

type dotState struct{ Sum float64 }

type rowState struct {
	Mi, Rows int
	Row      []float64
	NextRows [][]float64
}

func newCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	cl, err := NewCluster(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// states peeks at every node's resident state behind the control surface.
func states(cl *Cluster) []*nodeState {
	out := make([]*nodeState, len(cl.hosts))
	for i, h := range cl.hosts {
		out[i] = h.node
	}
	return out
}

// inject starts a default-namespace agent; an injection the daemon did
// not acknowledge fails the test.
func inject(t testing.TB, cl *Cluster, node int, behavior string, state any) {
	t.Helper()
	if err := cl.Inject(node, behavior, state); err != nil {
		t.Fatal(err)
	}
}

func setVar(t testing.TB, cl *Cluster, node int, name string, v any) {
	t.Helper()
	if err := cl.SetVar(node, name, v); err != nil {
		t.Fatal(err)
	}
}

func getVar(t testing.TB, cl *Cluster, node int, name string) any {
	t.Helper()
	v, err := cl.GetVar(node, name)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// jobCounters reads job's counter slice summed over the cluster, from one
// snapshot round every member answered.
func jobCounters(t testing.TB, rc *RemoteCluster, job uint64) counters {
	t.Helper()
	c, complete := rc.snapshotJob(job)
	if !complete {
		t.Fatalf("job %d snapshot round incomplete: a member did not answer", job)
	}
	return c
}

func TestRingAgentCrossesRealSockets(t *testing.T) {
	cl := newCluster(t, 4)
	inject(t, cl, 0, "ring", &ringState{Laps: 3})
	if err := cl.Wait(waitTimeout); err != nil {
		t.Fatal(err)
	}
	// Three laps over nodes 0..3 summing node ids: 3 × (0+1+2+3).
	got := getVar(t, cl, 3, "ringsum")
	if got != int64(18) {
		t.Fatalf("ringsum = %v, want 18", got)
	}
}

func TestDistributedDotProduct(t *testing.T) {
	cl := newCluster(t, 3)
	next := 1.0
	for pe := 0; pe < 3; pe++ {
		x := make([]float64, 4)
		y := make([]float64, 4)
		for i := range x {
			x[i] = next
			y[i] = 2
			next++
		}
		setVar(t, cl, pe, "x", x)
		setVar(t, cl, pe, "y", y)
	}
	inject(t, cl, 0, "dot", &dotState{})
	if err := cl.Wait(waitTimeout); err != nil {
		t.Fatal(err)
	}
	if got := getVar(t, cl, 2, "result"); got != float64(156) {
		t.Fatalf("dot = %v, want 156", got)
	}
}

func TestEventsSynchronizeAcrossWireAgents(t *testing.T) {
	cl := newCluster(t, 2)
	inject(t, cl, 0, "consumer", nil) // hops to node 1, waits
	time.Sleep(10 * time.Millisecond)
	inject(t, cl, 1, "producer", nil)
	if err := cl.Wait(waitTimeout); err != nil {
		t.Fatal(err)
	}
	if got := getVar(t, cl, 1, "consumed"); got != 99 {
		t.Fatalf("consumed = %v, want 99", got)
	}
}

func TestLocalInjectionSpawnsAgents(t *testing.T) {
	cl := newCluster(t, 3)
	inject(t, cl, 1, "spawner", nil)
	if err := cl.Wait(waitTimeout); err != nil {
		t.Fatal(err)
	}
	// Five ring agents of one lap each ran to completion; termination
	// detection has already proven they all finished.
}

func TestMatMulDSCOverWire(t *testing.T) {
	// The paper's 1-D DSC matrix multiplication with the A rows migrating
	// through real TCP sockets.
	const n, pes = 6, 3
	rng := rand.New(rand.NewSource(9))
	a := matrix.NewDense(n, n)
	b := matrix.NewDense(n, n)
	a.FillRandom(rng)
	b.FillRandom(rng)
	want := matrix.Mul(a, b)

	cl := newCluster(t, pes)
	colsPerPE := n / pes
	for pe := 0; pe < pes; pe++ {
		bcols := make([][]float64, colsPerPE)
		for lj := range bcols {
			col := make([]float64, n)
			for k := 0; k < n; k++ {
				col[k] = b.At(k, pe*colsPerPE+lj)
			}
			bcols[lj] = col
		}
		setVar(t, cl, pe, "Bcols", bcols)
	}
	rows := make([][]float64, n)
	for i := 0; i < n; i++ {
		rows[i] = append([]float64(nil), a.Row(i)...)
	}
	inject(t, cl, 0, "RowCarrier", &rowState{Mi: 0, Rows: n, Row: rows[0], NextRows: rows[1:]})
	if err := cl.Wait(waitTimeout); err != nil {
		t.Fatal(err)
	}

	got := matrix.NewDense(n, n)
	for pe := 0; pe < pes; pe++ {
		for i := 0; i < n; i++ {
			crow := getVar(t, cl, pe, fmt.Sprintf("Crow:%d", i)).([]float64)
			for lj, v := range crow {
				got.Set(i, pe*colsPerPE+lj, v)
			}
		}
	}
	if d := got.MaxAbsDiff(want); d > 1e-9 {
		t.Fatalf("wire DSC product differs from reference by %g", d)
	}
}

func TestBehaviorPanicSurfaces(t *testing.T) {
	cl := newCluster(t, 1)
	inject(t, cl, 0, "boom", nil)
	err := cl.Wait(waitTimeout)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want panic report", err)
	}
}

func TestMissingVerdictSurfaces(t *testing.T) {
	cl := newCluster(t, 1)
	inject(t, cl, 0, "noverdict", nil)
	err := cl.Wait(waitTimeout)
	if err == nil || !strings.Contains(err.Error(), "verdict") {
		t.Fatalf("err = %v", err)
	}
}

func TestUnregisteredBehaviorSurfaces(t *testing.T) {
	cl := newCluster(t, 1)
	inject(t, cl, 0, "no-such-behavior", nil)
	err := cl.Wait(waitTimeout)
	if err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("err = %v", err)
	}
}

func TestWaitTimesOutOnStuckAgent(t *testing.T) {
	Register("stuck", func(ctx *Ctx) Verdict {
		ctx.Wait("never-signaled")
		return ctx.Done()
	})
	cl := newCluster(t, 1)
	inject(t, cl, 0, "stuck", nil)
	err := cl.Wait(300 * time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "timeout") {
		t.Fatalf("err = %v, want timeout", err)
	}
}

func TestManyConcurrentAgents(t *testing.T) {
	var finished atomic.Int64
	Register("churn", func(ctx *Ctx) Verdict {
		st := ctx.State().(*ringState)
		st.Hops++
		if st.Hops >= 8 {
			finished.Add(1)
			return ctx.Done()
		}
		return ctx.HopTo((ctx.NodeID() + 1 + st.Hops) % ctx.Nodes())
	})
	cl := newCluster(t, 4)
	const agents = 32
	for i := 0; i < agents; i++ {
		inject(t, cl, i%4, "churn", &ringState{})
	}
	if err := cl.Wait(waitTimeout); err != nil {
		t.Fatal(err)
	}
	if finished.Load() != agents {
		t.Fatalf("finished %d of %d", finished.Load(), agents)
	}
}

func TestRegisterValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty registration")
		}
	}()
	Register("", nil)
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(0); err == nil {
		t.Fatal("zero-size cluster accepted")
	}
}
