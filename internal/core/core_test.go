package core

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/navp"
)

func sweepPlan(rows, cols int) *Plan {
	return DSC("sweep", GridSweep(rows, cols, 1e6, func(j int) int { return j }), 100)
}

func groupByRow(it Item) string {
	var i, j int
	fmt.Sscanf(it.ID, "it(%d,%d)", &i, &j)
	return fmt.Sprintf("row%d", i)
}

func TestAccessConflicts(t *testing.T) {
	read := Access{Cell: "x"}
	write := Access{Cell: "x", Write: true}
	reduce := Access{Cell: "x", Write: true, Commutative: true}
	other := Access{Cell: "y", Write: true}
	if read.Conflicts(read) {
		t.Error("read-read conflicts")
	}
	if !read.Conflicts(write) || !write.Conflicts(read) {
		t.Error("read-write must conflict")
	}
	if !write.Conflicts(write) {
		t.Error("write-write must conflict")
	}
	if reduce.Conflicts(reduce) {
		t.Error("commuting reductions must not conflict")
	}
	if !reduce.Conflicts(read) {
		t.Error("reduction conflicts with read")
	}
	if write.Conflicts(other) {
		t.Error("different cells conflict")
	}
}

func TestDSCProducesOneThread(t *testing.T) {
	p := sweepPlan(3, 4)
	if len(p.Threads) != 1 {
		t.Fatalf("threads = %d", len(p.Threads))
	}
	if got := len(p.Threads[0].Items); got != 12 {
		t.Fatalf("items = %d", got)
	}
	if p.SeqIndex("it(0,0)") != 0 || p.SeqIndex("it(2,3)") != 11 {
		t.Fatal("sequential stamps wrong")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineSplitsByGroupPreservingOrder(t *testing.T) {
	p := Pipeline(sweepPlan(3, 4), groupByRow)
	if len(p.Threads) != 3 {
		t.Fatalf("threads = %d", len(p.Threads))
	}
	for i, th := range p.Threads {
		if th.Name != fmt.Sprintf("sweep/row%d", i) {
			t.Fatalf("thread %d name %q", i, th.Name)
		}
		for j, it := range th.Items {
			want := fmt.Sprintf("it(%d,%d)", i, j)
			if it.ID != want {
				t.Fatalf("thread %d item %d = %q, want %q", i, j, it.ID, want)
			}
		}
		if th.Start != 0 {
			t.Fatalf("pipelined thread %d starts at %d, want 0", i, th.Start)
		}
	}
}

func TestPhaseShiftRotatesStarts(t *testing.T) {
	p := PhaseShift(Pipeline(sweepPlan(3, 3), groupByRow), nil)
	// Default rotation: thread k starts at position (len-1-k) mod len.
	wantStart := []int{2, 1, 0}
	for k, th := range p.Threads {
		if th.Start != wantStart[k] {
			t.Fatalf("thread %d starts at node %d, want %d", k, th.Start, wantStart[k])
		}
		if len(th.Items) != 3 {
			t.Fatalf("thread %d lost items", k)
		}
	}
}

func TestCheckAcceptsSweepPipeline(t *testing.T) {
	for name, p := range map[string]*Plan{
		"dsc":      sweepPlan(3, 4),
		"pipeline": Pipeline(sweepPlan(3, 4), groupByRow),
		"phase":    PhaseShift(Pipeline(sweepPlan(3, 4), groupByRow), nil),
	} {
		v, err := Check(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(v) != 0 {
			t.Fatalf("%s: unexpected violations: %v", name, v)
		}
	}
}

func TestCheckCatchesBrokenDependence(t *testing.T) {
	// Two items that write the same cell non-commutatively, split into
	// separate threads with no dep: Check must flag them as unordered.
	items := []Item{
		{ID: "w1", Node: 0, Accesses: []Access{{Cell: "x", Write: true}}},
		{ID: "w2", Node: 0, Accesses: []Access{{Cell: "x", Write: true}}},
	}
	p := Pipeline(DSC("t", items, 0), func(it Item) string { return it.ID })
	v, err := Check(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 1 || v[0].First != "w1" || v[0].Second != "w2" || v[0].Reversed {
		t.Fatalf("violations = %v", v)
	}
	// Adding the dep repairs the plan.
	p.Deps = append(p.Deps, Dep{Before: "w1", After: "w2"})
	v, err = Check(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 0 {
		t.Fatalf("dep did not repair plan: %v", v)
	}
	// A reversed dep is worse than no dep.
	p.Deps = []Dep{{Before: "w2", After: "w1"}}
	v, err = Check(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 1 || !v[0].Reversed {
		t.Fatalf("reversed dep not flagged: %v", v)
	}
}

func TestCheckCatchesIllegalRotation(t *testing.T) {
	// A thread whose items form a true chain (each reads the previous
	// item's output) must not be rotated.
	var items []Item
	for i := 0; i < 4; i++ {
		acc := []Access{{Cell: fmt.Sprintf("s%d", i), Write: true}}
		if i > 0 {
			acc = append(acc, Access{Cell: fmt.Sprintf("s%d", i-1)})
		}
		items = append(items, Item{ID: fmt.Sprintf("step%d", i), Node: i, Accesses: acc})
	}
	good := DSC("chain", items, 0)
	if v, _ := Check(good); len(v) != 0 {
		t.Fatalf("sequential chain flagged: %v", v)
	}
	bad := PhaseShift(good, func(k, n int) int { return 2 })
	v, err := Check(bad)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) == 0 {
		t.Fatal("rotation of a dependence chain not caught")
	}
	for _, viol := range v {
		if !viol.Reversed {
			t.Fatalf("expected reversed violations, got %v", viol)
		}
	}
}

func TestValidateRejectsCrossNodeDeps(t *testing.T) {
	p := &Plan{
		Threads: []Thread{{Name: "a", Items: []Item{{ID: "x", Node: 0}}},
			{Name: "b", Items: []Item{{ID: "y", Node: 1}}}},
		Deps: []Dep{{Before: "x", After: "y"}},
	}
	if err := p.Validate(); err == nil {
		t.Fatal("cross-node dep accepted; NavP events are node-local")
	}
}

func TestValidateRejectsDuplicatesAndUnknowns(t *testing.T) {
	dup := &Plan{Threads: []Thread{{Items: []Item{{ID: "x", Node: 0}, {ID: "x", Node: 0}}}}}
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	unknown := &Plan{
		Threads: []Thread{{Items: []Item{{ID: "x", Node: 0}}}},
		Deps:    []Dep{{Before: "x", After: "nope"}},
	}
	if err := unknown.Validate(); err == nil {
		t.Fatal("unknown dep endpoint accepted")
	}
}

func newSim(n int) *navp.System {
	return navp.NewSim(navp.DefaultConfig(), machine.SunBlade100(), n)
}

func TestExecuteRunsAllItems(t *testing.T) {
	rows, cols := 3, 4
	items := GridSweep(rows, cols, 1e6, func(j int) int { return j })
	var mu sync.Mutex
	ran := map[string]bool{}
	for i := range items {
		id := items[i].ID
		items[i].Fn = func() { mu.Lock(); ran[id] = true; mu.Unlock() }
	}
	p := PhaseShift(Pipeline(DSC("sweep", items, 64), groupByRow), nil)
	if err := Execute(p, newSim(cols), nil); err != nil {
		t.Fatal(err)
	}
	if len(ran) != rows*cols {
		t.Fatalf("ran %d of %d items", len(ran), rows*cols)
	}
}

func TestExecuteHonorsDeps(t *testing.T) {
	var order []string
	items := []Item{
		{ID: "produce", Node: 1, Fn: func() { order = append(order, "produce") }},
		{ID: "consume", Node: 1, Fn: func() { order = append(order, "consume") }},
	}
	p := Pipeline(DSC("t", items, 0), func(it Item) string { return it.ID })
	// Inject consumer thread first; the dep must still order them.
	p.Threads[0], p.Threads[1] = p.Threads[1], p.Threads[0]
	p.Deps = []Dep{{Before: "produce", After: "consume"}}
	if err := Execute(p, newSim(2), nil); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "produce" {
		t.Fatalf("order = %v", order)
	}
}

func TestExecuteDeadlocksOnCyclicDeps(t *testing.T) {
	items := []Item{
		{ID: "a", Node: 0},
		{ID: "b", Node: 0},
	}
	p := Pipeline(DSC("t", items, 0), func(it Item) string { return it.ID })
	p.Deps = []Dep{{Before: "a", After: "b"}, {Before: "b", After: "a"}}
	if err := Execute(p, newSim(1), nil); err == nil {
		t.Fatal("cyclic deps did not deadlock")
	}
}

func TestExecuteWithNodeMapping(t *testing.T) {
	// Ten virtual nodes folded onto two PEs.
	items := GridSweep(2, 10, 1e5, func(j int) int { return j })
	p := DSC("fold", items, 0)
	sys := newSim(2)
	if err := Execute(p, sys, func(v int) int { return v / 5 }); err != nil {
		t.Fatal(err)
	}
}

func TestTransformationsReduceMakespan(t *testing.T) {
	// Figure 1's promise, measured: pipeline beats DSC, phase shifting
	// beats pipelining, on a uniform sweep with per-item cost well above
	// the per-hop overhead.
	run := func(p *Plan, nodes int) float64 {
		sys := newSim(nodes)
		if err := Execute(p, sys, nil); err != nil {
			t.Fatal(err)
		}
		return sys.VirtualTime()
	}
	const rows, cols = 6, 3
	mk := func() []Item { return GridSweep(rows, cols, 200e6, func(j int) int { return j }) }
	dsc := run(DSC("s", mk(), 1000), cols)
	pipe := run(Pipeline(DSC("s", mk(), 1000), groupByRow), cols)
	phase := run(PhaseShift(Pipeline(DSC("s", mk(), 1000), groupByRow), nil), cols)
	if !(pipe < dsc) {
		t.Errorf("pipeline %v not faster than DSC %v", pipe, dsc)
	}
	if !(phase < pipe) {
		t.Errorf("phase %v not faster than pipeline %v", phase, pipe)
	}
}

func TestCheckPropertyRandomCommutativeSweepsSafe(t *testing.T) {
	// Property: any pipeline+rotation of a sweep whose writes are all
	// commutative per-cell and whose cells are disjoint across rows
	// checks clean.
	f := func(r8, c8, rot8 uint8) bool {
		rows := 1 + int(r8%4)
		cols := 1 + int(c8%5)
		rot := int(rot8)
		p := PhaseShift(
			Pipeline(DSC("s", GridSweep(rows, cols, 1, func(j int) int { return j }), 0), groupByRow),
			func(k, n int) int { return (rot + k) % max(n, 1) },
		)
		v, err := Check(p)
		return err == nil && len(v) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestPhaseShiftNamedUsesThreadIdentity(t *testing.T) {
	p := Pipeline(sweepPlan(3, 4), groupByRow)
	shifted := PhaseShiftNamed(p, func(name string, length int) int {
		if name == "sweep/row1" {
			return 2
		}
		return 0
	})
	if shifted.Threads[0].Items[0].ID != "it(0,0)" {
		t.Fatalf("row0 rotated unexpectedly: %v", shifted.Threads[0].Items[0].ID)
	}
	if shifted.Threads[1].Items[0].ID != "it(1,2)" {
		t.Fatalf("row1 not rotated by 2: %v", shifted.Threads[1].Items[0].ID)
	}
	// Negative rotations normalize.
	neg := PhaseShiftNamed(p, func(string, int) int { return -1 })
	if neg.Threads[0].Items[0].ID != "it(0,3)" {
		t.Fatalf("rotation -1 gave %v", neg.Threads[0].Items[0].ID)
	}
}
