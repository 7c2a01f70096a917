package navp

import (
	"fmt"
	"sync/atomic"
)

// Event is a handle to one of a System's counting events, minted by
// System.Event. One handle names the event on every node: an agent
// waits on and signals the event of the node it is on. The zero Event
// belongs to no system.
type Event struct{ sys, id uint32 }

// Var is a handle to one of a System's variables, minted by System.Var.
// One handle keys a node variable on every node and an agent variable
// on every agent. The zero Var belongs to no system.
type Var struct{ sys, id uint32 }

// String names the handle by number, for panic text; the name it was
// minted with is known only to its System.
func (ev Event) String() string { return fmt.Sprintf("event #%d of system %d", ev.id, ev.sys) }

// String names the handle by number, for panic text.
func (v Var) String() string { return fmt.Sprintf("variable #%d of system %d", v.id, v.sys) }

// systems numbers Systems from 1, so that no System accepts a zero
// handle or one minted by another System. A counter, rather than the
// System's address in every handle, keeps a handle 8 bytes with no
// pointer for the collector to scan.
var systems atomic.Uint32

// Event mints a handle for a new event labelled name. Every call mints a
// new event: the name is what traces, deadlock reports and panics print,
// not a key. Mint every handle before Run, as a MESSENGERS daemon
// resolves a program's names when it loads it; once Run has been called,
// Event panics with an error wrapping ErrSystemDone.
func (s *System) Event(name string) Event {
	if s.ran {
		panic(fmt.Errorf("navp: Event(%q): %w (mint handles before Run)", name, ErrSystemDone))
	}
	// No lock: before Run no loop runs, and Run starts them afterwards.
	s.eventNames = append(s.eventNames, name)
	s.nevents.Store(uint32(len(s.eventNames)))
	return Event{s.id, uint32(len(s.eventNames) - 1)}
}

// Var mints a handle for a new variable labelled name, as Event mints
// events: a new variable per call, and only before Run.
func (s *System) Var(name string) Var {
	if s.ran {
		panic(fmt.Errorf("navp: Var(%q): %w (mint handles before Run)", name, ErrSystemDone))
	}
	s.varNames = append(s.varNames, name)
	return Var{s.id, uint32(len(s.varNames) - 1)}
}

// checkEvent panics unless ev was minted by s.
func (s *System) checkEvent(ev Event) {
	if ev.sys != s.id {
		panic(fmt.Sprintf("navp: %v used on system %d", ev, s.id))
	}
	if n := s.nevents.Load(); ev.id >= n {
		panic(fmt.Sprintf("navp: %v is out of range: the system has %d events", ev, n))
	}
}

// checkVar panics unless v was minted by s. The variable table does not
// change once Run has started, so reading its length needs no lock.
func (s *System) checkVar(v Var) {
	if v.sys != s.id {
		panic(fmt.Sprintf("navp: %v used on system %d", v, s.id))
	}
	if n := len(s.varNames); int(v.id) >= n {
		panic(fmt.Sprintf("navp: %v is out of range: the system has %d variables", v, n))
	}
}

// eventName returns the name ev was minted with.
func (s *System) eventName(ev Event) string {
	s.checkEvent(ev)
	s.namedMu.Lock()
	defer s.namedMu.Unlock()
	return s.eventNames[ev.id]
}

// VarName returns the name v was minted with.
func (s *System) VarName(v Var) string {
	s.checkVar(v)
	return s.varNames[v.id]
}

// namedEvent returns the event the string forms of WaitEvent and
// SignalEvent call name, minting it at its first use. These are the
// only handles minted while the program runs, so the table is locked.
func (s *System) namedEvent(name string) Event {
	s.namedMu.Lock()
	defer s.namedMu.Unlock()
	ev, ok := s.named[name]
	if !ok {
		if s.named == nil {
			s.named = map[string]Event{}
		}
		s.eventNames = append(s.eventNames, name)
		ev = Event{s.id, uint32(len(s.eventNames) - 1)}
		s.named[name] = ev
		s.nevents.Store(uint32(len(s.eventNames)))
	}
	return ev
}
