package navp

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

func testHW() machine.Config {
	return machine.Config{
		CPURate:       100e6,
		NICBandwidth:  10e6,
		SwitchLatency: 1e-3,
		MemoryBytes:   1 << 30,
		PageInRate:    1e6,
		ElemBytes:     8,
	}
}

// zeroCfg has no daemon overheads, for tests asserting exact times.
func zeroCfg() Config { return Config{} }

func newSimSys(n int) *System { return NewSim(zeroCfg(), testHW(), n) }

func eachBackend(t *testing.T, n int, f func(t *testing.T, s *System)) {
	t.Helper()
	t.Run("sim", func(t *testing.T) { f(t, newSimSys(n)) })
	t.Run("real", func(t *testing.T) { f(t, NewReal(zeroCfg(), n)) })
}

func TestAgentRunsAndFinishes(t *testing.T) {
	eachBackend(t, 1, func(t *testing.T, s *System) {
		ran := false
		s.Inject(0, "a", func(ag *Agent) { ran = true })
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if !ran {
			t.Fatal("agent did not run")
		}
	})
}

func TestHopMovesAgent(t *testing.T) {
	eachBackend(t, 3, func(t *testing.T, s *System) {
		var visited []int
		s.Inject(0, "walker", func(ag *Agent) {
			for _, n := range []int{1, 2, 0, 2} {
				ag.Hop(n)
				visited = append(visited, ag.Node().ID())
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		want := []int{1, 2, 0, 2}
		for i := range want {
			if visited[i] != want[i] {
				t.Fatalf("visited %v, want %v", visited, want)
			}
		}
	})
}

func TestHopCostScalesWithPayload(t *testing.T) {
	s := newSimSys(2)
	var light, heavy sim.Time
	s.Inject(0, "light", func(ag *Agent) {
		ag.Hop(1)
		light = ag.Now()
	})
	payload := s.Var("payload")
	s.Inject(0, "heavy", func(ag *Agent) {
		ag.Set(payload, nil, 10e6) // 1 s at 10 MB/s
		ag.Hop(1)
		heavy = ag.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if heavy < light+0.9 {
		t.Fatalf("heavy hop %v not ~1s slower than light hop %v", heavy, light)
	}
}

func TestHopToSelfIsFree(t *testing.T) {
	s := newSimSys(2)
	x := s.Var("x")
	s.Inject(0, "a", func(ag *Agent) {
		ag.Set(x, nil, 1<<30)
		ag.Hop(0)
		if ag.Now() != 0 {
			t.Errorf("self-hop charged %v", ag.Now())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAgentVariablesTravel(t *testing.T) {
	eachBackend(t, 2, func(t *testing.T, s *System) {
		row := s.Var("row")
		s.Inject(0, "carrier", func(ag *Agent) {
			ag.Set(row, []float64{1, 2, 3}, 24)
			ag.Hop(1)
			got := AgentVar[[]float64](ag, row)
			if len(got) != 3 || got[2] != 3 {
				t.Errorf("agent variable lost in hop: %v", got)
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAgentVarDeleteReducesPayload(t *testing.T) {
	s := newSimSys(1)
	x := s.Var("x")
	s.Inject(0, "a", func(ag *Agent) {
		base := ag.PayloadBytes()
		ag.Set(x, 1, 100)
		ag.Set(x, 2, 60) // overwrite: size replaced, not added
		if got := ag.PayloadBytes(); got != base+60 {
			t.Errorf("payload %d, want %d", got, base+60)
		}
		ag.Delete(x)
		if got := ag.PayloadBytes(); got != base {
			t.Errorf("payload after delete %d, want %d", got, base)
		}
		if ag.Get(x) != nil {
			t.Error("deleted variable still present")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNodeVariablesStayPut(t *testing.T) {
	eachBackend(t, 2, func(t *testing.T, s *System) {
		b := s.Var("B")
		s.Node(1).Set(b, 42)
		s.Inject(0, "reader", func(ag *Agent) {
			if ag.Node().Get(b) != nil {
				t.Error("node variable visible on wrong node")
			}
			ag.Hop(1)
			if got := NodeVar[int](ag.Node(), b); got != 42 {
				t.Errorf("node variable = %v", got)
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestEventsSynchronizeAcrossAgents(t *testing.T) {
	eachBackend(t, 2, func(t *testing.T, s *System) {
		var order []string
		var mu sync.Mutex
		push := func(v string) { mu.Lock(); order = append(order, v); mu.Unlock() }
		ready := s.Event("ready")
		s.Inject(0, "consumer", func(ag *Agent) {
			ag.Hop(1)
			ag.Wait(ready)
			push("consumed")
		})
		s.Inject(0, "producer", func(ag *Agent) {
			ag.Hop(1)
			push("produced")
			ag.Signal(ready)
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if len(order) != 2 || order[0] != "produced" || order[1] != "consumed" {
			t.Fatalf("order %v", order)
		}
	})
}

func TestEventsAreNodeLocal(t *testing.T) {
	// A signal on node 0 must not satisfy a wait on node 1.
	eachBackend(t, 2, func(t *testing.T, s *System) {
		e := s.Event("e")
		s.Inject(0, "signaler", func(ag *Agent) { ag.Signal(e) })
		s.Inject(0, "waiter", func(ag *Agent) {
			ag.Hop(1)
			ag.Wait(e)
		})
		err := s.Run()
		if _, ok := err.(*sim.DeadlockError); !ok {
			t.Fatalf("err = %v, want deadlock (events must be node-local)", err)
		}
	})
}

func TestEventCountingAccumulates(t *testing.T) {
	eachBackend(t, 1, func(t *testing.T, s *System) {
		n := 0
		e := s.Event("e")
		s.Inject(0, "sig", func(ag *Agent) {
			for i := 0; i < 5; i++ {
				ag.Signal(e)
			}
		})
		s.Inject(0, "wait", func(ag *Agent) {
			for i := 0; i < 5; i++ {
				ag.Wait(e)
				n++
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if n != 5 {
			t.Fatalf("consumed %d of 5 signals", n)
		}
	})
}

func TestInjectIsLocal(t *testing.T) {
	eachBackend(t, 3, func(t *testing.T, s *System) {
		var childNode int
		done := make(chan struct{})
		s.Inject(0, "spawner", func(ag *Agent) {
			ag.Hop(2)
			ag.Inject("child", func(c *Agent) {
				childNode = c.Node().ID()
				close(done)
			})
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		<-done
		if childNode != 2 {
			t.Fatalf("child injected at node %d, want 2 (injection is local)", childNode)
		}
	})
}

func TestInjectAfterRunReturnsErrSystemDone(t *testing.T) {
	s := newSimSys(1)
	if err := s.Inject(0, "a", func(ag *Agent) {}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.Inject(0, "late", func(ag *Agent) {}); !errors.Is(err, ErrSystemDone) {
		t.Fatalf("Inject after Run returned %v, want ErrSystemDone", err)
	}
	if err := s.Run(); !errors.Is(err, ErrSystemDone) {
		t.Fatalf("second Run returned %v, want ErrSystemDone", err)
	}
}

// pendingEvents returns how many events of node's loop hold pending
// signals or parked waiters (real backend).
func pendingEvents(s *System, node int) int {
	n := 0
	for _, pg := range s.backend.(*realBackend).pes[node].pages {
		if pg == nil {
			continue
		}
		for _, ev := range pg {
			if ev != (realEvent{}) {
				n++
			}
		}
	}
	return n
}

// parkedOn returns how many agents are parked on event ev of ag's node
// (real backend). Only an agent on the node may call it: the events
// belong to the node's loop.
func parkedOn(ag *Agent, ev Event) int {
	last := ag.sys.backend.(*realBackend).pes[ag.node.id].event(ev).last
	if last == nil {
		return 0
	}
	n := 1
	for w := last.link; w != last; w = w.link {
		n++
	}
	return n
}

func TestRealEventsLeaveNoResidue(t *testing.T) {
	const names = 1000
	for _, order := range []string{"signal-first", "wait-first"} {
		t.Run(order, func(t *testing.T) {
			s := NewReal(zeroCfg(), 2)
			events := make([]Event, names)
			for i := range events {
				events[i] = s.Event(fmt.Sprintf("e%d", i))
			}
			ack := s.Event("ack")
			waiter := func(ag *Agent) {
				for _, e := range events {
					ag.Wait(e)
					if order == "wait-first" {
						ag.Signal(ack)
					}
				}
			}
			for node := 0; node < 2; node++ {
				if order == "wait-first" {
					// Injected first, the waiter parks on e0 before the
					// signaler's first step. Each ack hand-off then runs
					// it until it parks on the next event.
					s.Inject(node, "waiter", waiter)
				}
				s.Inject(node, "signaler", func(ag *Agent) {
					for i, e := range events {
						if order == "signal-first" {
							ag.Signal(e)
							continue
						}
						if n := parkedOn(ag, e); n != 1 {
							t.Errorf("%d waiters parked on e%d before its signal, want 1", n, i)
						}
						ag.Signal(e)
						ag.Wait(ack)
					}
					if order == "signal-first" {
						// Every signal is pending before the waiter starts.
						ag.Inject("waiter", waiter)
					}
				})
			}
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			for node := 0; node < 2; node++ {
				if n := pendingEvents(s, node); n != 0 {
					t.Fatalf("node %d holds %d events after a balanced program", node, n)
				}
			}
		})
	}
}

func TestRealEventCountsUnderParkedWaiters(t *testing.T) {
	const waiters = 8
	s := NewReal(zeroCfg(), 1)
	goEv, ack := s.Event("go"), s.Event("ack")
	finished := 0 // touched only by node 0's loop
	for i := 0; i < waiters; i++ {
		s.Inject(0, fmt.Sprintf("w%d", i), func(ag *Agent) {
			ag.Wait(goEv)
			finished++
			ag.Signal(ack)
		})
	}
	// Injected last, the signaler runs after every waiter has parked.
	s.Inject(0, "signaler", func(ag *Agent) {
		if n := parkedOn(ag, goEv); n != waiters {
			t.Errorf("%d waiters parked before the first signal, want %d", n, waiters)
		}
		// The first half one at a time, each consumed while the others
		// stay parked; the second half in one burst.
		for i := 1; i <= waiters; i++ {
			ag.Signal(goEv)
			if i > waiters/2 {
				continue
			}
			ag.Wait(ack)
			if n := parkedOn(ag, goEv); finished != i || n != waiters-i {
				t.Errorf("after signal %d: %d finished and %d parked, want %d and %d", i, finished, n, i, waiters-i)
			}
		}
		for i := waiters / 2; i < waiters; i++ {
			ag.Wait(ack)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if finished != waiters {
		t.Fatalf("%d of %d waiters finished", finished, waiters)
	}
	if n := pendingEvents(s, 0); n != 0 {
		t.Fatalf("node 0 holds %d events, want 0", n)
	}
}

func TestRealTraceIntervals(t *testing.T) {
	s := NewReal(zeroCfg(), 1)
	var mu sync.Mutex
	var events []trace.TraceEvent
	s.SetTracer(tracerFunc(func(ev trace.TraceEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}))
	const nap = 2 * time.Millisecond
	s.Inject(0, "worker", func(ag *Agent) {
		ag.Compute(0, func() { time.Sleep(nap) })
	})
	// Injected before the signaler, the waiter parks before the signal.
	e := s.Event("e")
	s.Inject(0, "waiter", func(ag *Agent) { ag.Wait(e) })
	s.Inject(0, "signaler", func(ag *Agent) { ag.Signal(e) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	kinds := map[trace.TraceKind]int{}
	for _, ev := range events {
		kinds[ev.Kind]++
		switch ev.Kind {
		case trace.TraceCompute:
			if got := ev.End - ev.Start; got < nap.Seconds() {
				t.Errorf("compute interval %.6fs, want >= %v held", got, nap)
			}
		case trace.TraceWait:
			if ev.End < ev.Start || ev.Label != "e" {
				t.Errorf("wait event %+v", ev)
			}
		}
	}
	if kinds[trace.TraceCompute] != 1 || kinds[trace.TraceWait] != 1 {
		t.Fatalf("recorded %d computes and %d waits, want 1 and 1", kinds[trace.TraceCompute], kinds[trace.TraceWait])
	}
}

// TestRealStepsDoNotInterleave: two agents on one PE share a plain int.
// A read-modify-write with no scheduling point inside loses no update,
// and is clean under -race, because a PE's loop runs one agent at a time.
func TestRealStepsDoNotInterleave(t *testing.T) {
	const rounds = 200
	s := NewReal(zeroCfg(), 2)
	shared := 0 // touched only on PE 0
	for _, name := range []string{"a", "b"} {
		s.Inject(0, name, func(ag *Agent) {
			for i := 0; i < rounds; i++ {
				v := shared
				runtime.Gosched()
				shared = v + 1
				ag.Hop(1) // a scheduling point between steps
				ag.Hop(0)
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if shared != 2*rounds {
		t.Fatalf("shared = %d, want %d: steps on one PE interleaved", shared, 2*rounds)
	}
}

// TestRealLinkDeliversInOrder: agents that leave PE 0 for PE 1 arrive in
// the order they left, as on a FIFO network link.
func TestRealLinkDeliversInOrder(t *testing.T) {
	const agents = 32
	s := NewReal(zeroCfg(), 3)
	var left, arrived []string // touched only on PE 0 and PE 1
	for i := 0; i < agents; i++ {
		name := fmt.Sprintf("a%d", i)
		s.Inject(0, name, func(ag *Agent) {
			// Odd agents make a round trip through PE 2 first, so they
			// do not leave PE 0 in injection order.
			if i%2 == 1 {
				ag.Hop(2)
				ag.Hop(0)
			}
			left = append(left, name)
			ag.Hop(1)
			arrived = append(arrived, name)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(arrived) != fmt.Sprint(left) {
		t.Fatalf("left PE 0 as %v, arrived on PE 1 as %v", left, arrived)
	}
}

// TestRealInjectedChildrenRunFirst: the children an agent injects in a
// step run, in injection order, before agents that were already queued
// on its PE — whether the step ends by returning or by parking.
func TestRealInjectedChildrenRunFirst(t *testing.T) {
	s := NewReal(zeroCfg(), 1)
	var order []string // touched only on PE 0
	push := func(v string) func(*Agent) {
		return func(*Agent) { order = append(order, v) }
	}
	resume := s.Event("resume")
	s.Inject(0, "parent", func(ag *Agent) {
		ag.Inject("child1", push("child1"))
		ag.Inject("child2", push("child2"))
		order = append(order, "parent")
		ag.Wait(resume)
		ag.Inject("child3", push("child3"))
		order = append(order, "parent resumed")
	})
	s.Inject(0, "queued1", push("queued1"))
	s.Inject(0, "queued2", func(ag *Agent) {
		order = append(order, "queued2")
		ag.Signal(resume)
	})
	s.Inject(0, "queued3", push("queued3"))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[parent child1 child2 queued1 queued2 queued3 parent resumed child3]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("order %s, want %s", got, want)
	}
}

// TestRealDeadlockIsReported: when every live agent is parked, Run
// returns the same error type as the sim backend and unwinds the parked
// agents, leaving no goroutine behind.
func TestRealDeadlockIsReported(t *testing.T) {
	base := runtime.NumGoroutine()
	s := NewReal(zeroCfg(), 2)
	unwound := 0 // touched only on PE 1
	e := s.Event("e")
	s.Inject(0, "signaler", func(ag *Agent) { ag.Signal(e) })
	for _, name := range []string{"w2", "w1"} {
		s.Inject(0, name, func(ag *Agent) {
			defer func() { unwound++ }()
			ag.Hop(1)
			ag.Wait(e)
			t.Errorf("%s passed a wait no signal can satisfy", name)
		})
	}
	err := s.Run()
	dl, ok := err.(*sim.DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want *sim.DeadlockError", err)
	}
	if got, want := fmt.Sprint(dl.Blocked), "[w1 (waiting on e@1) w2 (waiting on e@1)]"; got != want {
		t.Fatalf("blocked %s, want %s", got, want)
	}
	if unwound != 2 {
		t.Fatalf("%d of 2 parked agents unwound", unwound)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), base)
		}
	}
}

func TestComputeChargesModelTime(t *testing.T) {
	s := newSimSys(1)
	var end sim.Time
	s.Inject(0, "c", func(ag *Agent) {
		ag.Compute(200e6, nil) // 2 s at 100 Mflop/s
		end = ag.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(end-2.0) > 1e-9 {
		t.Fatalf("compute charged %v, want 2", end)
	}
}

func TestComputeSerializesOnOneNode(t *testing.T) {
	s := newSimSys(2)
	var ends []sim.Time
	for i := 0; i < 2; i++ {
		s.Inject(0, fmt.Sprintf("c%d", i), func(ag *Agent) {
			ag.Compute(100e6, nil)
			ends = append(ends, ag.Now())
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(ends[0]-1) > 1e-9 || math.Abs(ends[1]-2) > 1e-9 {
		t.Fatalf("ends %v: one CPU per PE must serialize", ends)
	}
}

func TestComputeRunsBody(t *testing.T) {
	eachBackend(t, 1, func(t *testing.T, s *System) {
		x := 0
		s.Inject(0, "c", func(ag *Agent) {
			ag.Compute(1, func() { x = 7 })
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if x != 7 {
			t.Fatal("compute body skipped")
		}
	})
}

// TestComputeClosureDoesNotAllocate pins Compute calling fn itself: a
// closure capturing three pointers, passed to Compute, stays on the
// caller's stack on both backends.
func TestComputeClosureDoesNotAllocate(t *testing.T) {
	eachBackend(t, 1, func(t *testing.T, s *System) {
		var allocs float64
		s.Inject(0, "c", func(ag *Agent) {
			x, y, z := new(float64), new(float64), new(float64)
			*x, *y = 1, 2
			allocs = testing.AllocsPerRun(100, func() {
				ag.Compute(1, func() { *z += *x * *y })
			})
			if *z != 2*101 {
				t.Errorf("compute body ran %v times, want 101", *z/2)
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Fatalf("Compute with a capturing closure made %v allocations per call, want 0", allocs)
		}
	})
}

func TestDaemonOverheadsCharged(t *testing.T) {
	cfg := Config{StateBytes: 0, HopOverhead: 0.5, InjectOverhead: 0.25, EventOverhead: 0.125}
	s := NewSim(cfg, testHW(), 2)
	var afterHop, afterSignal sim.Time
	e := s.Event("e")
	s.Inject(0, "a", func(ag *Agent) {
		ag.Hop(1) // latency 1e-3 + hop overhead 0.5
		afterHop = ag.Now()
		ag.Signal(e)
		afterSignal = ag.Now()
		ag.Inject("b", func(*Agent) {})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if afterHop < 0.5 {
		t.Fatalf("hop overhead not charged: %v", afterHop)
	}
	if afterSignal < afterHop+0.125 {
		t.Fatalf("event overhead not charged: %v vs %v", afterSignal, afterHop)
	}
}

func TestNodeVarPanicsOnMissingAndWrongType(t *testing.T) {
	s := newSimSys(1)
	x, nope := s.Var("x"), s.Var("nope")
	s.Node(0).Set(x, "string")
	for name, c := range map[string]struct {
		fn   func()
		want string
	}{
		"missing":    {func() { NodeVar[int](s.Node(0), nope) }, `navp: node 0 has no variable "nope"`},
		"wrong type": {func() { NodeVar[int](s.Node(0), x) }, `navp: node 0 variable "x" has type string, not int`},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != c.want {
					t.Fatalf("panic %v, want %q", r, c.want)
				}
			}()
			c.fn()
		})
	}
}

func TestTracerReceivesEvents(t *testing.T) {
	s := newSimSys(2)
	var events []trace.TraceEvent
	s.SetTracer(tracerFunc(func(ev trace.TraceEvent) { events = append(events, ev) }))
	e := s.Event("e")
	s.Inject(0, "a", func(ag *Agent) {
		ag.Hop(1)
		ag.Compute(1e6, nil)
		ag.Signal(e)
		ag.Wait(e)
		ag.Inject("b", func(*Agent) {})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	kinds := map[trace.TraceKind]int{}
	for _, ev := range events {
		kinds[ev.Kind]++
	}
	for _, k := range []trace.TraceKind{trace.TraceHop, trace.TraceCompute, trace.TraceSignal, trace.TraceWait, trace.TraceInject} {
		if kinds[k] == 0 {
			t.Fatalf("no %v event recorded (events: %d)", k, len(events))
		}
	}
}

type tracerFunc func(trace.TraceEvent)

func (f tracerFunc) Record(ev trace.TraceEvent) { f(ev) }

func TestRealBackendParallelAgentsNoRace(t *testing.T) {
	// Many agents hopping, computing, and signaling concurrently; run with
	// -race to validate the locking discipline.
	s := NewReal(zeroCfg(), 4)
	const agents = 16
	var total int
	var mu sync.Mutex
	tick := s.Event("tick")
	for i := 0; i < agents; i++ {
		i := i
		s.Inject(i%4, fmt.Sprintf("a%d", i), func(ag *Agent) {
			for j := 0; j < 8; j++ {
				ag.Hop((ag.Node().ID() + 1) % 4)
				ag.Compute(0, func() {
					mu.Lock()
					total++
					mu.Unlock()
				})
				ag.Signal(tick)
				ag.Wait(tick)
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if total != agents*8 {
		t.Fatalf("total = %d, want %d", total, agents*8)
	}
}

func TestSimDeterminism(t *testing.T) {
	run := func() sim.Time {
		s := NewSim(DefaultConfig(), testHW(), 3)
		x, e := s.Var("x"), s.Event("e")
		for i := 0; i < 6; i++ {
			i := i
			s.Inject(i%3, fmt.Sprintf("a%d", i), func(ag *Agent) {
				for j := 0; j < 4; j++ {
					ag.Set(x, nil, int64(1000*(i+1)))
					ag.Hop((ag.Node().ID() + 1 + j) % 3)
					ag.Compute(1e6*float64(i+1), nil)
					ag.Signal(e)
				}
				for j := 0; j < 4; j++ {
					ag.Wait(e)
				}
			})
		}
		// The waits above consume this agent's own signals on its final
		// node; top up so it can't deadlock: signal from a dedicated agent.
		s.Inject(0, "pump", func(ag *Agent) {
			for n := 0; n < 3; n++ {
				ag.Hop(n)
				for j := 0; j < 8; j++ {
					ag.Signal(e)
				}
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.VirtualTime()
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("virtual finish time differs: %v vs %v", got, first)
		}
	}
}

func TestVirtualTimeOnRealPanics(t *testing.T) {
	s := NewReal(zeroCfg(), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s.VirtualTime()
}
