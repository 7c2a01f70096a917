package navp

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/sim"
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
	s.Inject(0, "heavy", func(ag *Agent) {
		ag.Set("payload", nil, 10e6) // 1 s at 10 MB/s
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
	s.Inject(0, "a", func(ag *Agent) {
		ag.Set("x", nil, 1<<30)
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
		s.Inject(0, "carrier", func(ag *Agent) {
			ag.Set("row", []float64{1, 2, 3}, 24)
			ag.Hop(1)
			got := AgentVar[[]float64](ag, "row")
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
	s.Inject(0, "a", func(ag *Agent) {
		base := ag.PayloadBytes()
		ag.Set("x", 1, 100)
		ag.Set("x", 2, 60) // overwrite: size replaced, not added
		if got := ag.PayloadBytes(); got != base+60 {
			t.Errorf("payload %d, want %d", got, base+60)
		}
		ag.Delete("x")
		if got := ag.PayloadBytes(); got != base {
			t.Errorf("payload after delete %d, want %d", got, base)
		}
		if ag.Get("x") != nil {
			t.Error("deleted variable still present")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNodeVariablesStayPut(t *testing.T) {
	eachBackend(t, 2, func(t *testing.T, s *System) {
		s.Node(1).Set("B", 42)
		s.Inject(0, "reader", func(ag *Agent) {
			if ag.Node().Get("B") != nil {
				t.Error("node variable visible on wrong node")
			}
			ag.Hop(1)
			if got := NodeVar[int](ag.Node(), "B"); got != 42 {
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
		s.Inject(0, "consumer", func(ag *Agent) {
			ag.Hop(1)
			ag.WaitEvent("ready")
			push("consumed")
		})
		s.Inject(0, "producer", func(ag *Agent) {
			ag.Hop(1)
			push("produced")
			ag.SignalEvent("ready")
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
	s := newSimSys(2)
	s.Inject(0, "signaler", func(ag *Agent) { ag.SignalEvent("e") })
	s.Inject(0, "waiter", func(ag *Agent) {
		ag.Hop(1)
		ag.WaitEvent("e")
	})
	err := s.Run()
	if _, ok := err.(*sim.DeadlockError); !ok {
		t.Fatalf("err = %v, want deadlock (events must be node-local)", err)
	}
}

func TestEventCountingAccumulates(t *testing.T) {
	eachBackend(t, 1, func(t *testing.T, s *System) {
		n := 0
		s.Inject(0, "sig", func(ag *Agent) {
			for i := 0; i < 5; i++ {
				ag.SignalEvent("e")
			}
		})
		s.Inject(0, "wait", func(ag *Agent) {
			for i := 0; i < 5; i++ {
				ag.WaitEvent("e")
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

// pendingEvents returns how many events nd's map holds.
func pendingEvents(nd *Node) int {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return len(nd.events)
}

// awaitParked yields until n agents are parked on nd's event name
// (real backend), so the caller's next signal comes after their waits.
func awaitParked(nd *Node, name string, n int) {
	for {
		nd.mu.Lock()
		ev, _ := nd.events[name].(*realEvent)
		parked := ev != nil && ev.waiting == n
		nd.mu.Unlock()
		if parked {
			return
		}
		runtime.Gosched()
	}
}

func TestRealEventsLeaveNoResidue(t *testing.T) {
	const names = 1000
	for _, order := range []string{"signal-first", "wait-first"} {
		t.Run(order, func(t *testing.T) {
			s := NewReal(zeroCfg(), 2)
			waiter := func(ag *Agent) {
				for i := 0; i < names; i++ {
					ag.WaitEvent(fmt.Sprintf("e%d", i))
				}
			}
			for node := 0; node < 2; node++ {
				if order == "wait-first" {
					s.Inject(node, "waiter", waiter)
				}
				s.Inject(node, "signaler", func(ag *Agent) {
					for i := 0; i < names; i++ {
						e := fmt.Sprintf("e%d", i)
						if order == "wait-first" {
							awaitParked(ag.Node(), e, 1)
						}
						ag.SignalEvent(e)
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
				if n := pendingEvents(s.Node(node)); n != 0 {
					t.Fatalf("node %d holds %d events after a balanced program", node, n)
				}
			}
		})
	}
}

func TestRealEventCountsUnderParkedWaiters(t *testing.T) {
	const waiters = 8
	s := NewReal(zeroCfg(), 1)
	var finished atomic.Int32
	for i := 0; i < waiters; i++ {
		s.Inject(0, fmt.Sprintf("w%d", i), func(ag *Agent) {
			ag.WaitEvent("go")
			finished.Add(1)
		})
	}
	s.Inject(0, "signaler", func(ag *Agent) {
		awaitParked(ag.Node(), "go", waiters)
		// The first half one at a time, each consumed while the others
		// stay parked; the second half in one burst.
		for i := 1; i <= waiters; i++ {
			ag.SignalEvent("go")
			for i <= waiters/2 && finished.Load() < int32(i) {
				runtime.Gosched()
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n := finished.Load(); n != waiters {
		t.Fatalf("%d of %d waiters finished", n, waiters)
	}
	if n := pendingEvents(s.Node(0)); n != 0 {
		t.Fatalf("node 0 holds %d events, want 0", n)
	}
}

func TestRealTraceIntervals(t *testing.T) {
	s := NewReal(zeroCfg(), 1)
	var mu sync.Mutex
	var events []TraceEvent
	s.SetTracer(tracerFunc(func(ev TraceEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}))
	const nap = 2 * time.Millisecond
	s.Inject(0, "worker", func(ag *Agent) {
		ag.Compute(0, func() { time.Sleep(nap) })
	})
	s.Inject(0, "waiter", func(ag *Agent) { ag.WaitEvent("e") })
	s.Inject(0, "signaler", func(ag *Agent) {
		awaitParked(ag.Node(), "e", 1)
		ag.SignalEvent("e")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	kinds := map[TraceKind]int{}
	for _, ev := range events {
		kinds[ev.Kind]++
		switch ev.Kind {
		case TraceCompute:
			if got := ev.End - ev.Start; got < nap.Seconds() {
				t.Errorf("compute interval %.6fs, want >= %v held", got, nap)
			}
		case TraceWait:
			if ev.End < ev.Start || ev.Label != "e" {
				t.Errorf("wait event %+v", ev)
			}
		}
	}
	if kinds[TraceCompute] != 1 || kinds[TraceWait] != 1 {
		t.Fatalf("recorded %d computes and %d waits, want 1 and 1", kinds[TraceCompute], kinds[TraceWait])
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

func TestDaemonOverheadsCharged(t *testing.T) {
	cfg := Config{StateBytes: 0, HopOverhead: 0.5, InjectOverhead: 0.25, EventOverhead: 0.125}
	s := NewSim(cfg, testHW(), 2)
	var afterHop, afterSignal sim.Time
	s.Inject(0, "a", func(ag *Agent) {
		ag.Hop(1) // latency 1e-3 + hop overhead 0.5
		afterHop = ag.Now()
		ag.SignalEvent("e")
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
	s.Node(0).Set("x", "string")
	for name, fn := range map[string]func(){
		"missing":    func() { NodeVar[int](s.Node(0), "nope") },
		"wrong type": func() { NodeVar[int](s.Node(0), "x") },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			fn()
		})
	}
}

func TestTracerReceivesEvents(t *testing.T) {
	s := newSimSys(2)
	var events []TraceEvent
	s.SetTracer(tracerFunc(func(ev TraceEvent) { events = append(events, ev) }))
	s.Inject(0, "a", func(ag *Agent) {
		ag.Hop(1)
		ag.Compute(1e6, nil)
		ag.SignalEvent("e")
		ag.WaitEvent("e")
		ag.Inject("b", func(*Agent) {})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	kinds := map[TraceKind]int{}
	for _, ev := range events {
		kinds[ev.Kind]++
	}
	for _, k := range []TraceKind{TraceHop, TraceCompute, TraceSignal, TraceWait, TraceInject} {
		if kinds[k] == 0 {
			t.Fatalf("no %v event recorded (events: %d)", k, len(events))
		}
	}
}

type tracerFunc func(TraceEvent)

func (f tracerFunc) Record(ev TraceEvent) { f(ev) }

func TestRealBackendParallelAgentsNoRace(t *testing.T) {
	// Many agents hopping, computing, and signaling concurrently; run with
	// -race to validate the locking discipline.
	s := NewReal(zeroCfg(), 4)
	const agents = 16
	var total int
	var mu sync.Mutex
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
				ag.SignalEvent("tick")
				ag.WaitEvent("tick")
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
		for i := 0; i < 6; i++ {
			i := i
			s.Inject(i%3, fmt.Sprintf("a%d", i), func(ag *Agent) {
				for j := 0; j < 4; j++ {
					ag.Set("x", nil, int64(1000*(i+1)))
					ag.Hop((ag.Node().ID() + 1 + j) % 3)
					ag.Compute(1e6*float64(i+1), nil)
					ag.SignalEvent("e")
				}
				for j := 0; j < 4; j++ {
					ag.WaitEvent("e")
				}
			})
		}
		// The waits above consume this agent's own signals on its final
		// node; top up so it can't deadlock: signal from a dedicated agent.
		s.Inject(0, "pump", func(ag *Agent) {
			for n := 0; n < 3; n++ {
				ag.Hop(n)
				for j := 0; j < 8; j++ {
					ag.SignalEvent("e")
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
