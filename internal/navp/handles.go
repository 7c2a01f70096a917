package navp

import (
	"fmt"
	"sort"
	"strconv"
	"sync/atomic"
)

// handle is what an Event and a Var hold: the number of the System that
// minted it and a dense id within that system's events or variables.
type handle struct{ sys, id uint32 }

// Event is a handle to one of a System's counting events, minted by
// System.Event or System.Events. One handle names the event on every
// node: an agent waits on and signals the event of the node it is on.
// The zero Event belongs to no system.
type Event handle

// Var is a handle to one of a System's variables, minted by System.Var
// or System.Vars. One handle keys a node variable on every node and an
// agent variable on every agent. The zero Var belongs to no system.
type Var handle

// String names the handle by number, for panic text; the label it was
// minted with is known only to its System.
func (ev Event) String() string { return fmt.Sprintf("event #%d of system %d", ev.id, ev.sys) }

// String names the handle by number, for panic text.
func (v Var) String() string { return fmt.Sprintf("variable #%d of system %d", v.id, v.sys) }

// systems numbers Systems from 1, so that no System accepts a zero
// handle or one minted by another System. A counter, rather than the
// System's address in every handle, keeps a handle 8 bytes with no
// pointer for the collector to scan.
var systems atomic.Uint32

// maxDims is the most indices a Table takes.
const maxDims = 3

// Table is the table of handles one call of System.Events or System.Vars
// minted: one handle per index tuple below its shape, the last index
// varying fastest. At, At2 and At3 look a handle up in a table of one,
// two or three indices by arithmetic alone, so a program's hot path
// indexes no slice and hashes nothing. An index outside the shape
// panics.
type Table[H Event | Var] struct {
	sys, first uint32
	dims       int
	shape      [maxDims]int
}

// At returns handle (i) of a one-index table.
func (t Table[H]) At(i int) H {
	if t.dims != 1 || uint(i) >= uint(t.shape[0]) {
		t.outside(i)
	}
	return H(handle{t.sys, t.first + uint32(i)})
}

// At2 returns handle (i,j) of a two-index table.
func (t Table[H]) At2(i, j int) H {
	if t.dims != 2 || uint(i) >= uint(t.shape[0]) || uint(j) >= uint(t.shape[1]) {
		t.outside(i, j)
	}
	return H(handle{t.sys, t.first + uint32(i*t.shape[1]+j)})
}

// At3 returns handle (i,j,k) of a three-index table.
func (t Table[H]) At3(i, j, k int) H {
	if t.dims != 3 || uint(i) >= uint(t.shape[0]) || uint(j) >= uint(t.shape[1]) || uint(k) >= uint(t.shape[2]) {
		t.outside(i, j, k)
	}
	return H(handle{t.sys, t.first + uint32((i*t.shape[1]+j)*t.shape[2]+k)})
}

// outside panics for an index tuple the table does not hold.
func (t Table[H]) outside(idx ...int) {
	panic(fmt.Sprintf("navp: index %v is outside a table of shape %v", idx, t.shape[:t.dims]))
}

// handleRange is the record one minting call leaves: count handles from
// first, labelled prefix alone (a handle minted by Event or Var) or
// prefix:i, prefix:i:j or prefix:i:j:k over shape. A label is formatted
// from its range only when a person reads it.
type handleRange struct {
	first, count uint32
	prefix       string
	dims         int
	shape        [maxDims]int
}

// label formats the label of id, one of the handles ranges holds.
func label(ranges []handleRange, id uint32) string {
	r := &ranges[sort.Search(len(ranges), func(i int) bool { return ranges[i].first > id })-1]
	if r.dims == 0 {
		return r.prefix
	}
	var idx [maxDims]int
	off := int(id - r.first)
	for d := r.dims - 1; d >= 0; d-- {
		idx[d], off = off%r.shape[d], off/r.shape[d]
	}
	b := make([]byte, 0, len(r.prefix)+r.dims*8)
	b = append(b, r.prefix...)
	for _, v := range idx[:r.dims] {
		b = strconv.AppendInt(append(b, ':'), int64(v), 10)
	}
	return string(b)
}

// mint appends to *ranges the range of handles from first over shape
// (no indices: one handle) and returns it, or panics naming what minted
// it when the shape is invalid or the system is done.
func (s *System) mint(what string, ranges *[]handleRange, first uint32, prefix string, shape []int) handleRange {
	if s.ran {
		panic(fmt.Errorf("navp: %s(%q): %w (mint handles before Run)", what, prefix, ErrSystemDone))
	}
	if len(shape) > maxDims {
		panic(fmt.Sprintf("navp: %s(%q): %d indices, at most %d", what, prefix, len(shape), maxDims))
	}
	r := handleRange{first: first, prefix: prefix, dims: len(shape)}
	count := uint64(1)
	for d, n := range shape {
		if n < 0 {
			panic(fmt.Sprintf("navp: %s(%q): index %d has negative size %d", what, prefix, d, n))
		}
		r.shape[d] = n
		count *= uint64(n)
	}
	if count > uint64(^uint32(0)-first) {
		panic(fmt.Sprintf("navp: %s(%q): %d more handles overflow the system's %d", what, prefix, count, first))
	}
	r.count = uint32(count)
	if r.count > 0 {
		*ranges = append(*ranges, r)
	}
	return r
}

// Events mints one event per index tuple below shape (one to three
// sizes), labelled "prefix:i", "prefix:i:j" or "prefix:i:j:k", and
// returns their table. The system keeps one record per call, however
// many events it mints, and formats a label only where a person reads
// it: trace labels, deadlock reports and panic text. Mint every handle
// before Run, as a MESSENGERS daemon resolves a program's names when it
// loads it; once Run has been called, Events panics with an error
// wrapping ErrSystemDone.
func (s *System) Events(prefix string, shape ...int) Table[Event] {
	if len(shape) == 0 {
		panic(fmt.Sprintf("navp: Events(%q): no shape (use Event)", prefix))
	}
	return s.mintEvents("Events", prefix, shape)
}

// Event mints a new event labelled name: Events with no indices. Every
// call mints a new event; the name is what traces, deadlock reports and
// panics print, not a key.
func (s *System) Event(name string) Event {
	t := s.mintEvents("Event", name, nil)
	return Event{t.sys, t.first}
}

// mintEvents mints the events of one Events or Event call. No lock:
// before Run no loop runs, and Run starts them afterwards.
func (s *System) mintEvents(what, prefix string, shape []int) Table[Event] {
	r := s.mint(what, &s.events, s.nevents.Load(), prefix, shape)
	s.nevents.Add(r.count)
	return Table[Event]{sys: s.id, first: r.first, dims: r.dims, shape: r.shape}
}

// Vars mints one variable per index tuple below shape, as Events mints
// events.
func (s *System) Vars(prefix string, shape ...int) Table[Var] {
	if len(shape) == 0 {
		panic(fmt.Sprintf("navp: Vars(%q): no shape (use Var)", prefix))
	}
	return s.mintVars("Vars", prefix, shape)
}

// Var mints a new variable labelled name: Vars with no indices, a new
// variable per call, and only before Run.
func (s *System) Var(name string) Var {
	t := s.mintVars("Var", name, nil)
	return Var{t.sys, t.first}
}

// mintVars mints the variables of one Vars or Var call.
func (s *System) mintVars(what, prefix string, shape []int) Table[Var] {
	r := s.mint(what, &s.vars, s.nvars, prefix, shape)
	s.nvars += r.count
	return Table[Var]{sys: s.id, first: r.first, dims: r.dims, shape: r.shape}
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

// checkVar panics unless v was minted by s. The variables do not change
// once Run has started, so reading their count needs no lock.
func (s *System) checkVar(v Var) {
	if v.sys != s.id {
		panic(fmt.Sprintf("navp: %v used on system %d", v, s.id))
	}
	if v.id >= s.nvars {
		panic(fmt.Sprintf("navp: %v is out of range: the system has %d variables", v, s.nvars))
	}
}

// EventName returns the label ev was minted with.
func (s *System) EventName(ev Event) string {
	s.checkEvent(ev)
	s.namedMu.Lock()
	defer s.namedMu.Unlock()
	return label(s.events, ev.id)
}

// VarName returns the label v was minted with.
func (s *System) VarName(v Var) string {
	s.checkVar(v)
	return label(s.vars, v.id)
}

// namedEvent returns the event the string forms of WaitEvent and
// SignalEvent call name, minting it at its first use. These are the
// only handles minted while the program runs, so the events' records
// are locked.
func (s *System) namedEvent(name string) Event {
	s.namedMu.Lock()
	defer s.namedMu.Unlock()
	ev, ok := s.named[name]
	if !ok {
		if s.named == nil {
			s.named = map[string]Event{}
		}
		ev = Event{s.id, s.nevents.Load()}
		s.events = append(s.events, handleRange{first: ev.id, count: 1, prefix: name})
		s.named[name] = ev
		s.nevents.Add(1)
	}
	return ev
}
