package navp

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/machine"
)

// randomProgram stages a randomized but deadlock-free NavP program on
// the system: several agents perform seeded sequences of hops, computes,
// variable updates, and self-balanced event signal/wait pairs.
func randomProgram(s *System, seed int64, agents, steps, nodes int) {
	vars := [3]Var{s.Var("v0"), s.Var("v1"), s.Var("v2")}
	for a := 0; a < agents; a++ {
		a := a
		rng := rand.New(rand.NewSource(seed + int64(a)))
		start := rng.Intn(nodes)
		var script []func(*Agent)
		for i := 0; i < steps; i++ {
			switch rng.Intn(4) {
			case 0:
				dst := rng.Intn(nodes)
				script = append(script, func(ag *Agent) { ag.Hop(dst) })
			case 1:
				flops := float64(rng.Intn(5)+1) * 1e5
				script = append(script, func(ag *Agent) { ag.Compute(flops, nil) })
			case 2:
				bytes := int64(rng.Intn(4096))
				v := vars[rng.Intn(3)]
				script = append(script, func(ag *Agent) { ag.Set(v, nil, bytes) })
			case 3:
				// Events are node-local, so a blind signal/wait pair
				// split by hops could deadlock. Keep each pair adjacent
				// on whatever node the agent happens to be on, keyed per
				// agent so no cross-agent coupling arises.
				ev := s.Event(fmt.Sprintf("ev%d", a))
				script = append(script, func(ag *Agent) {
					ag.Signal(ev)
					ag.Wait(ev)
				})
			}
		}
		s.Inject(start, fmt.Sprintf("rand%d", a), func(ag *Agent) {
			for _, step := range script {
				step(ag)
			}
		})
	}
}

// TestRandomProgramsDeterministic: any randomized program produces the
// identical virtual finish time on every run — the simulator's core
// guarantee, probed across program shapes rather than one fixed example.
func TestRandomProgramsDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		run := func() float64 {
			s := NewSim(DefaultConfig(), machine.SunBlade100(), 4)
			randomProgram(s, seed, 5, 12, 4)
			if err := s.Run(); err != nil {
				return -1
			}
			return s.VirtualTime()
		}
		first := run()
		return first >= 0 && run() == first && run() == first
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomProgramsCompleteOnRealBackend: the same program shapes run
// to completion with real goroutines (validating the locking discipline
// under -race).
func TestRandomProgramsCompleteOnRealBackend(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		s := NewReal(DefaultConfig(), 4)
		randomProgram(s, seed, 5, 12, 4)
		if err := s.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestRandomProgramsPayloadAccounting: after any sequence of Set/Delete,
// PayloadBytes equals state bytes plus the live variables' sizes.
func TestRandomProgramsPayloadAccounting(t *testing.T) {
	f := func(ops []uint16) bool {
		s := NewSim(DefaultConfig(), machine.SunBlade100(), 1)
		var vars [5]Var
		for i := range vars {
			vars[i] = s.Var(fmt.Sprintf("v%d", i))
		}
		ok := true
		s.Inject(0, "acct", func(ag *Agent) {
			live := map[Var]int64{}
			for _, op := range ops {
				v := vars[op%5]
				if op%3 == 0 {
					ag.Delete(v)
					delete(live, v)
				} else {
					size := int64(op % 1000)
					ag.Set(v, nil, size)
					live[v] = size
				}
				var want int64 = ag.sys.cfg.StateBytes
				for _, sz := range live {
					want += sz
				}
				if ag.PayloadBytes() != want {
					ok = false
					return
				}
			}
		})
		if err := s.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
