package machine

import (
	"fmt"

	"repro/internal/sim"
)

// Pager models a PE's physical memory as an LRU cache of application
// blocks backed by slow swap. Touching a non-resident block charges its
// page-in time and evicts least-recently-used blocks to make room.
//
// This reproduces the paper's Table 2 scenario: a sequential N=9216
// multiply whose 1 GB working set thrashes a 256 MB machine, versus a DSC
// run whose per-PE sub-problem fits in memory.
//
// The granularity is the caller's block (an "algorithmic block" of the
// matrix), not a 4 KB page; since a blocked multiply streams whole blocks,
// the coarse model has the same miss behaviour with far fewer events.
type Pager struct {
	name     string
	capacity int64
	rate     float64 // page-in bytes/s

	used    int64
	entries map[string]*pageEntry
	// Intrusive LRU list; head = most recent, tail = least recent.
	head, tail *pageEntry

	faults     int64
	hits       int64
	bytesPaged int64
}

type pageEntry struct {
	key        string
	bytes      int64
	prev, next *pageEntry
}

// NewPager returns a pager with the given capacity in bytes and page-in
// rate in bytes/s.
func NewPager(name string, capacity int64, rate float64) *Pager {
	if capacity <= 0 || rate <= 0 {
		panic(fmt.Sprintf("machine: pager %q: capacity %d and rate %v must be positive", name, capacity, rate))
	}
	return &Pager{name: name, capacity: capacity, rate: rate, entries: map[string]*pageEntry{}}
}

// Capacity returns the pager's capacity in bytes.
func (pg *Pager) Capacity() int64 { return pg.capacity }

// Resident returns the number of bytes currently resident.
func (pg *Pager) Resident() int64 { return pg.used }

// Faults returns the number of block faults charged so far.
func (pg *Pager) Faults() int64 { return pg.faults }

// Hits returns the number of resident touches so far.
func (pg *Pager) Hits() int64 { return pg.hits }

// BytesPagedIn returns the total bytes charged to page-in.
func (pg *Pager) BytesPagedIn() int64 { return pg.bytesPaged }

// Touch references the block identified by key. If it is resident, it is
// promoted to most-recently-used at no cost; otherwise the calling process
// sleeps for the block's page-in time, LRU blocks are evicted to make
// room, and the block becomes resident. A block larger than the whole
// memory panics — the model has no answer for that and neither did the
// paper's machines.
func (pg *Pager) Touch(p *sim.Proc, key string, bytes int64) {
	if bytes > pg.capacity {
		panic(fmt.Sprintf("machine: pager %q: block %q (%d B) exceeds capacity %d B", pg.name, key, bytes, pg.capacity))
	}
	if e, ok := pg.entries[key]; ok {
		pg.hits++
		pg.moveToFront(e)
		return
	}
	pg.faults++
	pg.bytesPaged += bytes
	for pg.used+bytes > pg.capacity {
		pg.evictLRU()
	}
	e := &pageEntry{key: key, bytes: bytes}
	pg.entries[key] = e
	pg.used += bytes
	pg.pushFront(e)
	if p != nil {
		p.Sleep(sim.Time(float64(bytes) / pg.rate))
	}
}

// Warm makes the block resident without charging time, for data that is
// loaded before the timed region begins (the paper times the multiply,
// not the initial file load). Warm evicts like Touch if space is needed.
func (pg *Pager) Warm(key string, bytes int64) {
	pg.Touch(nil, key, bytes)
	pg.faults--
	pg.bytesPaged -= bytes
}

func (pg *Pager) pushFront(e *pageEntry) {
	e.prev = nil
	e.next = pg.head
	if pg.head != nil {
		pg.head.prev = e
	}
	pg.head = e
	if pg.tail == nil {
		pg.tail = e
	}
}

func (pg *Pager) unlink(e *pageEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		pg.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		pg.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (pg *Pager) moveToFront(e *pageEntry) {
	if pg.head == e {
		return
	}
	pg.unlink(e)
	pg.pushFront(e)
}

func (pg *Pager) evictLRU() {
	e := pg.tail
	if e == nil {
		panic(fmt.Sprintf("machine: pager %q: eviction with empty LRU", pg.name))
	}
	pg.unlink(e)
	delete(pg.entries, e.key)
	pg.used -= e.bytes
}
