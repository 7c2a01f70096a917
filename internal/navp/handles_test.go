package navp

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// mustPanic calls fn and returns what it panicked with, failing the
// test if it returned normally.
func mustPanic(t *testing.T, what string, fn func()) (r any) {
	t.Helper()
	defer func() {
		if r = recover(); r == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
	return nil
}

// TestHandleMintedAfterRunPanics: once Run has been called, minting an
// event or a variable fails as Inject does, with ErrSystemDone — from
// inside the running program and after it.
func TestHandleMintedAfterRunPanics(t *testing.T) {
	eachBackend(t, 1, func(t *testing.T, s *System) {
		var during []any // touched only by the agent, read after Run
		s.Inject(0, "minter", func(ag *Agent) {
			during = append(during,
				mustPanic(t, "Event during Run", func() { ag.System().Event("late") }),
				mustPanic(t, "Var during Run", func() { ag.System().Var("late") }))
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		after := []any{
			mustPanic(t, "Event after Run", func() { s.Event("late") }),
			mustPanic(t, "Var after Run", func() { s.Var("late") }),
		}
		for _, r := range append(during, after...) {
			if err, ok := r.(error); !ok || !errors.Is(err, ErrSystemDone) {
				t.Errorf("panicked with %v, want an error wrapping ErrSystemDone", r)
			}
		}
	})
}

// TestForeignHandlePanics: a handle another System minted, the zero
// handle, and one past the system's last panic with a message naming
// the handle, whether the program uses it on a node before Run or in an
// agent while it runs.
func TestForeignHandlePanics(t *testing.T) {
	eachBackend(t, 1, func(t *testing.T, s *System) {
		other := NewReal(zeroCfg(), 1)
		s.Event("e")
		s.Var("v")
		events := map[string]Event{
			fmt.Sprintf("navp: event #0 of system %d used on system %d", other.id, s.id): other.Event("x"),
			fmt.Sprintf("navp: event #0 of system 0 used on system %d", s.id):            {},
			"navp: event #7 of system %d is out of range: the system has 1 events":       {s.id, 7},
		}
		vars := map[string]Var{
			fmt.Sprintf("navp: variable #0 of system %d used on system %d", other.id, s.id): other.Var("x"),
			fmt.Sprintf("navp: variable #0 of system 0 used on system %d", s.id):            {},
			"navp: variable #7 of system %d is out of range: the system has 1 variables":    {s.id, 7},
		}
		check := func(want string, r any) {
			t.Helper()
			if strings.Contains(want, "%d") {
				want = fmt.Sprintf(want, s.id)
			}
			if r != want {
				t.Errorf("panicked with %v, want %q", r, want)
			}
		}
		for want, v := range vars {
			check(want, mustPanic(t, "Node.Set", func() { s.Node(0).Set(v, 1) }))
			check(want, mustPanic(t, "Node.Get", func() { s.Node(0).Get(v) }))
		}
		type result struct {
			want string
			r    any
		}
		var got []result // touched only by the agent, read after Run
		s.Inject(0, "misuser", func(ag *Agent) {
			for want, ev := range events {
				got = append(got,
					result{want, mustPanic(t, "Wait", func() { ag.Wait(ev) })},
					result{want, mustPanic(t, "Signal", func() { ag.Signal(ev) })})
			}
			for want, v := range vars {
				got = append(got,
					result{want, mustPanic(t, "Agent.Set", func() { ag.Set(v, 1, 8) })},
					result{want, mustPanic(t, "Agent.Get", func() { ag.Get(v) })},
					result{want, mustPanic(t, "NodeVar", func() { NodeVar[int](ag.Node(), v) })})
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if len(got) != 2*len(events)+3*len(vars) {
			t.Fatalf("the agent recorded %d panics, want %d", len(got), 2*len(events)+3*len(vars))
		}
		for _, g := range got {
			check(g.want, g.r)
		}
	})
}

// TestDeadlockNamesEvents: a deadlock report names each blocked wait by
// the name its event was minted with, in each backend's format.
func TestDeadlockNamesEvents(t *testing.T) {
	want := map[string]string{
		"sim":  "[w@n0 (waiting on event n2:EP:1:2:3)]",
		"real": "[w (waiting on EP:1:2:3@2)]",
	}
	eachBackend(t, 3, func(t *testing.T, s *System) {
		s.Event("EC:0:0")
		ep := s.Event("EP:1:2:3")
		s.Inject(0, "w", func(ag *Agent) {
			ag.Hop(2)
			ag.Wait(ep)
		})
		var dl *sim.DeadlockError
		if err := s.Run(); !errors.As(err, &dl) {
			t.Fatalf("err = %v, want *sim.DeadlockError", err)
		}
		backend := map[bool]string{true: "sim", false: "real"}[s.Simulated()]
		if got := fmt.Sprint(dl.Blocked); got != want[backend] {
			t.Fatalf("blocked %s, want %s", got, want[backend])
		}
	})
}

// TestNamedEventsShareByName: the string forms of WaitEvent and
// SignalEvent name one event per string, minted while the program runs.
func TestNamedEventsShareByName(t *testing.T) {
	eachBackend(t, 1, func(t *testing.T, s *System) {
		n := 0 // touched only by the waiter, read after Run
		s.Inject(0, "waiter", func(ag *Agent) {
			ag.WaitEvent("go")
			n++
		})
		s.Inject(0, "signaler", func(ag *Agent) { ag.SignalEvent("go") })
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Fatal("a signal by name did not reach the wait by the same name")
		}
	})
}
