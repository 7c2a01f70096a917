package navp

import (
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/trace"
)

func chaosPlan() *fault.Plan {
	return &fault.Plan{
		Seed: 11, Drop: 0.05, Dup: 0.3, Delay: 0.2, MaxDelay: 1e-3,
		Kills: []fault.Kill{{Node: 1, AfterArrivals: 3}, {Node: 2, AfterArrivals: 5}},
	}
}

// TestFaultPlanReplaysIdenticallyOnSim: the acceptance property — a
// seeded FaultPlan produces the identical virtual finish time on every
// replay, for arbitrary program seeds.
func TestFaultPlanReplaysIdenticallyOnSim(t *testing.T) {
	f := func(seed int64) bool {
		run := func() float64 {
			s := NewSim(DefaultConfig(), machine.SunBlade100(), 4)
			randomProgram(s, seed, 5, 12, 4)
			s.SetFaultPlan(chaosPlan())
			if err := s.Run(); err != nil {
				return -1
			}
			return s.VirtualTime()
		}
		first := run()
		return first >= 0 && run() == first && run() == first
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestFaultPlanChargesTime: chaos is not free — the same program finishes
// no earlier under drops/kills than on a clean network, and the fault
// trace kinds show up.
func TestFaultPlanChargesTime(t *testing.T) {
	run := func(p *fault.Plan) (float64, map[trace.TraceKind]int) {
		s := NewSim(DefaultConfig(), machine.SunBlade100(), 4)
		randomProgram(s, 7, 5, 12, 4)
		kinds := map[trace.TraceKind]int{}
		s.SetTracer(faultTracer(func(ev trace.TraceEvent) { kinds[ev.Kind]++ }))
		if p != nil {
			s.SetFaultPlan(p)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.VirtualTime(), kinds
	}
	clean, _ := run(nil)
	chaotic, kinds := run(&fault.Plan{Seed: 3, Drop: 0.2, Kills: []fault.Kill{{Node: 1, AfterArrivals: 2}}})
	if chaotic < clean {
		t.Errorf("chaos run (%gs) finished before the clean run (%gs)", chaotic, clean)
	}
	if kinds[trace.TraceDrop] == 0 || kinds[trace.TraceRetry] == 0 {
		t.Errorf("no drop/retry events recorded: %v", kinds)
	}
	if kinds[trace.TraceKill] != 1 || kinds[trace.TraceRecover] != 1 {
		t.Errorf("kill/recover events = %d/%d, want 1/1", kinds[trace.TraceKill], kinds[trace.TraceRecover])
	}
}

type faultTracer func(trace.TraceEvent)

func (f faultTracer) Record(ev trace.TraceEvent) { f(ev) }

func TestSetFaultPlanGuards(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("real backend", func() {
		NewReal(DefaultConfig(), 2).SetFaultPlan(chaosPlan())
	})
	expectPanic("kill out of range", func() {
		NewSim(DefaultConfig(), machine.SunBlade100(), 2).
			SetFaultPlan(&fault.Plan{Kills: []fault.Kill{{Node: 5, AfterArrivals: 1}}})
	})
	// An inactive plan is a no-op, not an error.
	s := NewSim(DefaultConfig(), machine.SunBlade100(), 2)
	s.SetFaultPlan(&fault.Plan{})
	if s.backend.(*simBackend).fault != nil {
		t.Error("inactive plan installed an injector")
	}
}
