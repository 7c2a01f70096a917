// Package core formalizes the paper's primary contribution: the three
// mechanical NavP code transformations — DSC, Pipelining, and Phase
// shifting (§2, Figure 1) — as operations on explicit execution plans.
//
// A sequential program is modeled as an ordered list of Items, each an
// atomic unit of computation pinned (by the data distribution) to a
// node. The transformations are then:
//
//	DSC(items)        → a Plan with one migrating thread that visits each
//	                    item's node in program order (Figure 1b);
//	Pipeline(plan, g) → the thread split into multiple threads by a
//	                    grouping key, preserving within-group order,
//	                    injected in order so they follow each other
//	                    through the network (Figure 1c);
//	PhaseShift(plan)  → each thread's item sequence rotated so threads
//	                    enter the pipeline at distinct nodes (Figure 1d).
//
// Each transformation is mechanical — no understanding of the program
// beyond its declared data accesses is needed — and each intermediate
// plan is executable (Execute runs any plan on a navp.System). The
// Check function verifies that a plan preserves the dependences of the
// sequential order, which is what makes the incremental steps safe: a
// rotation or split that would reorder conflicting accesses is reported
// before the program ever runs.
package core

import (
	"fmt"
)

// Access declares one data cell an item touches.
type Access struct {
	// Cell names the datum (any stable string, e.g. "C(1,2)").
	Cell string
	// Write marks a mutation; reads conflict with writes, writes with
	// everything.
	Write bool
	// Commutative marks a reduction-style update (+=): two commutative
	// writes to the same cell may execute in either order. This is what
	// legalizes phase shifting in matrix multiplication: the k-loop's
	// contributions to C(i,j) commute.
	Commutative bool
}

// Conflicts reports whether two accesses to the same cell constrain
// execution order.
func (a Access) Conflicts(b Access) bool {
	if a.Cell != b.Cell {
		return false
	}
	if !a.Write && !b.Write {
		return false // read-read
	}
	if a.Write && b.Write && a.Commutative && b.Commutative {
		return false // commuting reductions
	}
	return true
}

// Item is one atomic unit of the computation: it must execute on Node
// (where its large data lives), costs Flops, and touches Accesses. Fn, if
// non-nil, performs the real work.
type Item struct {
	// ID must be unique within a plan.
	ID string
	// Node is the (virtual) node the item is pinned to.
	Node int
	// Flops is the computational cost charged to the node's CPU.
	Flops float64
	// Accesses declares the item's data footprint for dependence checks.
	Accesses []Access
	// Fn is the item's body (may be nil for model-only runs).
	Fn func()
}

// Thread is one migrating computation: it is injected at Start and
// executes its items in order, hopping to each item's node.
type Thread struct {
	// Name identifies the thread in traces.
	Name string
	// Start is the node the thread is injected on.
	Start int
	// CarryBytes is the agent-variable payload the thread hops with.
	CarryBytes int64
	// Items are executed in order.
	Items []Item
}

// Dep is an explicit cross-thread ordering edge: the item named Before
// must complete before the item named After starts. Both items must be
// pinned to the same node — NavP events are node-local, so this is the
// only synchronization shape the runtime (and MESSENGERS) offers.
type Dep struct {
	Before, After string
}

// Plan is a set of migrating threads plus cross-thread ordering edges.
// Threads are injected in slice order (which is itself a scheduling
// decision: pipelined threads enter the network in order).
type Plan struct {
	Threads []Thread
	Deps    []Dep
	// seq records the sequential position of each item ID, stamped by
	// DSC and preserved by the other transformations; Check uses it as
	// the dependence reference order.
	seq map[string]int
}

// Validate checks structural invariants: unique item IDs, dep endpoints
// that exist and share a node.
func (p *Plan) Validate() error {
	where := map[string]*Item{}
	for ti := range p.Threads {
		t := &p.Threads[ti]
		for ii := range t.Items {
			it := &t.Items[ii]
			if it.ID == "" {
				return fmt.Errorf("core: thread %q item %d has empty ID", t.Name, ii)
			}
			if _, dup := where[it.ID]; dup {
				return fmt.Errorf("core: duplicate item ID %q", it.ID)
			}
			where[it.ID] = it
		}
	}
	for _, d := range p.Deps {
		b, okB := where[d.Before]
		a, okA := where[d.After]
		if !okB || !okA {
			return fmt.Errorf("core: dep %q→%q references unknown item", d.Before, d.After)
		}
		if b.Node != a.Node {
			return fmt.Errorf("core: dep %q→%q spans nodes %d and %d; NavP events are node-local",
				d.Before, d.After, b.Node, a.Node)
		}
	}
	return nil
}

// Items returns all items of the plan in thread-major order.
func (p *Plan) Items() []*Item {
	var out []*Item
	for ti := range p.Threads {
		for ii := range p.Threads[ti].Items {
			out = append(out, &p.Threads[ti].Items[ii])
		}
	}
	return out
}

// SeqIndex returns the item's position in the original sequential
// program, or -1 if the plan was not produced by DSC.
func (p *Plan) SeqIndex(id string) int {
	if p.seq == nil {
		return -1
	}
	if i, ok := p.seq[id]; ok {
		return i
	}
	return -1
}

// DSC performs the DSC Transformation (Figure 1a→1b): the sequential
// item list becomes a single migrating thread that chases the
// distributed data in program order. The thread starts at the first
// item's node (hop(node(0)) in the paper's Figure 5 preamble).
func DSC(name string, items []Item, carryBytes int64) *Plan {
	seq := make(map[string]int, len(items))
	for i, it := range items {
		seq[it.ID] = i
	}
	start := 0
	if len(items) > 0 {
		start = items[0].Node
	}
	return &Plan{
		Threads: []Thread{{Name: name, Start: start, CarryBytes: carryBytes, Items: items}},
		seq:     seq,
	}
}

// Pipeline performs the Pipelining Transformation (Figure 1b→1c): the
// items of every thread are partitioned by groupOf, each group becoming
// its own thread injected in first-occurrence order. Within a group the
// original order is preserved; DSC's sequential stamp is retained so
// Check can verify that the split did not break dependences.
func Pipeline(p *Plan, groupOf func(Item) string) *Plan {
	out := &Plan{Deps: p.Deps, seq: p.seq}
	for _, t := range p.Threads {
		order := []string{}
		groups := map[string][]Item{}
		for _, it := range t.Items {
			g := groupOf(it)
			if _, ok := groups[g]; !ok {
				order = append(order, g)
			}
			groups[g] = append(groups[g], it)
		}
		for _, g := range order {
			items := groups[g]
			out.Threads = append(out.Threads, Thread{
				Name:       t.Name + "/" + g,
				Start:      items[0].Node,
				CarryBytes: t.CarryBytes,
				Items:      items,
			})
		}
	}
	return out
}

// PhaseShift performs the Phase-shifting Transformation (Figure 1c→1d):
// thread k's item sequence is rotated left by rotation(k, len) positions,
// so the threads enter the pipeline at distinct nodes. The rotation is
// only legal when the rotated items mutually commute; run Check on the
// result to verify.
//
// The default rotation used by the paper (Figure 9) staggers thread k to
// begin at position (len−1−k) mod len; pass nil to use it.
func PhaseShift(p *Plan, rotation func(thread, length int) int) *Plan {
	if rotation == nil {
		rotation = func(k, n int) int {
			if n == 0 {
				return 0
			}
			return ((n-1-k)%n + n) % n
		}
	}
	out := &Plan{Deps: p.Deps, seq: p.seq}
	for k, t := range p.Threads {
		items := make([]Item, len(t.Items))
		r := 0
		if len(t.Items) > 0 {
			r = rotation(k, len(t.Items)) % len(t.Items)
		}
		for i := range t.Items {
			items[i] = t.Items[(i+r)%len(t.Items)]
		}
		start := t.Start
		if len(items) > 0 {
			start = items[0].Node
		}
		out.Threads = append(out.Threads, Thread{
			Name:       t.Name,
			Start:      start,
			CarryBytes: t.CarryBytes,
			Items:      items,
		})
	}
	return out
}

// PhaseShiftNamed is PhaseShift with the rotation chosen per thread
// name rather than index — needed when the stagger depends on the
// thread's identity (e.g. the 2-D carriers of Figure 13, whose entry
// point depends on both of their indices).
func PhaseShiftNamed(p *Plan, rotation func(name string, length int) int) *Plan {
	out := &Plan{Deps: p.Deps, seq: p.seq}
	for _, t := range p.Threads {
		items := make([]Item, len(t.Items))
		r := 0
		if len(t.Items) > 0 {
			r = rotation(t.Name, len(t.Items)) % len(t.Items)
			r = (r + len(t.Items)) % len(t.Items)
		}
		for i := range t.Items {
			items[i] = t.Items[(i+r)%len(t.Items)]
		}
		start := t.Start
		if len(items) > 0 {
			start = items[0].Node
		}
		out.Threads = append(out.Threads, Thread{
			Name:       t.Name,
			Start:      start,
			CarryBytes: t.CarryBytes,
			Items:      items,
		})
	}
	return out
}

// GridSweep builds the sequential item list of a generic row-sweep
// computation: rows×cols items, item (i,j) pinned to node(j), costing
// flops each — the abstract workload of Figure 1. Item (i,j) reads
// row-input i and reduces into cell "out(i,j)".
func GridSweep(rows, cols int, flops float64, node func(col int) int) []Item {
	var items []Item
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			items = append(items, Item{
				ID:    fmt.Sprintf("it(%d,%d)", i, j),
				Node:  node(j),
				Flops: flops,
				Accesses: []Access{
					{Cell: fmt.Sprintf("in(%d)", i)},
					{Cell: fmt.Sprintf("out(%d,%d)", i, j), Write: true, Commutative: true},
				},
			})
		}
	}
	return items
}
