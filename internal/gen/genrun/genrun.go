// Package genrun is the runtime support library for navpgen-generated
// NavP programs (internal/gen, cmd/navpgen).
//
// Generated sources deliberately contain only the program itself — the
// agent state struct, the Hop-annotated loops, and the execution-plan
// constructor. Everything a generated program shares with every other
// generated program lives here: the distribution arithmetic (block and
// cyclic owners and ranges over an arbitrary half-open loop range), the
// phase-shift rotation (kept in lockstep with core.PhaseShift's default
// stagger), seeded input generation, oracle comparison, and the program
// registry through which generated programs are run by name.
package genrun

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/navp"
)

// Variant names one of the three mechanical transformations a generated
// program exists in (DESIGN.md §17). The zero value is DSC.
type Variant int

const (
	// DSC is the distributed-sequential program: one agent chasing the
	// distributed data in sequential order (Figure 1b).
	DSC Variant = iota
	// Pipelined splits the DSC agent into one agent per outer-loop
	// index, injected in order so they follow each other (Figure 1c).
	Pipelined
	// PhaseShifted rotates each pipelined agent's visit sequence so the
	// agents enter the network at distinct PEs (Figure 1d).
	PhaseShifted
)

// String returns the variant's short name as used in program registry
// keys ("dsc", "pipe", "phase").
func (v Variant) String() string {
	switch v {
	case DSC:
		return "dsc"
	case Pipelined:
		return "pipe"
	case PhaseShifted:
		return "phase"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Variants lists the three generated variants in derivation order.
var Variants = []Variant{DSC, Pipelined, PhaseShifted}

// ---------------------------------------------------------------------
// Distribution arithmetic. All functions take the distributed loop's
// half-open range [lo, hi) explicitly: a nest's distributed dimension
// rarely starts at zero (a stencil sweep runs i ∈ [1, n-1)), and the
// chunks partition the loop's range, not the array's.

// BlockRange returns the half-open sub-range [clo, chi) of [lo, hi)
// owned by chunk p of pes — the same uneven-tail split the rest of the
// repo uses (pe*n/pes). Chunks cover the range exactly and are
// monotone; an empty chunk returns clo == chi.
func BlockRange(p, lo, hi, pes int) (clo, chi int) {
	if hi < lo {
		hi = lo
	}
	n := hi - lo
	return lo + p*n/pes, lo + (p+1)*n/pes
}

// BlockLo returns the first index of chunk p (see BlockRange).
// Generated footprint cells use it to name the owners of ghost reads
// at a chunk's left edge.
func BlockLo(p, lo, hi, pes int) int {
	clo, _ := BlockRange(p, lo, hi, pes)
	return clo
}

// BlockHi returns the one-past-last index of chunk p (see BlockRange).
func BlockHi(p, lo, hi, pes int) int {
	_, chi := BlockRange(p, lo, hi, pes)
	return chi
}

// BlockLen returns the number of indexes chunk p owns.
func BlockLen(p, lo, hi, pes int) int {
	clo, chi := BlockRange(p, lo, hi, pes)
	return chi - clo
}

// BlockOwner returns the chunk of pes that owns index idx under the
// block distribution of [lo, hi). Indexes outside the range (ghost
// reads such as i-1 at the left edge) clamp to the nearest chunk.
func BlockOwner(idx, lo, hi, pes int) int {
	if hi <= lo {
		return 0
	}
	if idx < lo {
		idx = lo
	}
	if idx >= hi {
		idx = hi - 1
	}
	n := hi - lo
	// Inverse of BlockRange's floor split: the unique p with
	// lo+p*n/pes <= idx < lo+(p+1)*n/pes.
	p := ((idx-lo)*pes + pes - 1) / n
	for p > 0 {
		clo, _ := BlockRange(p, lo, hi, pes)
		if clo <= idx {
			break
		}
		p--
	}
	for {
		_, chi := BlockRange(p, lo, hi, pes)
		if idx < chi {
			break
		}
		p++
	}
	return p
}

// CyclicOwner returns the PE that owns index idx under the cyclic
// distribution of [lo, hi): indexes deal out round-robin from lo.
func CyclicOwner(idx, lo, pes int) int {
	r := (idx - lo) % pes
	if r < 0 {
		r += pes
	}
	return r
}

// CheckPEs validates a generated program's PE count against the system
// it is about to run on: every chunk owner must be a real node.
func CheckPEs(sys *navp.System, pes int) error {
	if pes < 1 {
		return fmt.Errorf("genrun: pes %d < 1", pes)
	}
	if n := sys.Nodes(); pes > n {
		return fmt.Errorf("genrun: pes %d exceeds the system's %d node(s)", pes, n)
	}
	return nil
}

// Rotation returns the phase-shift entry offset of thread k over a
// visit sequence of the given length: ((length-1-k) mod length), the
// paper's Figure-9 stagger. It is identical to core.PhaseShift's
// default rotation, which keeps the generated navp program and the
// generated execution plan in lockstep.
func Rotation(k, length int) int {
	if length <= 0 {
		return 0
	}
	return ((length-1-k)%length + length) % length
}

// ---------------------------------------------------------------------
// Seeded inputs and oracle comparison. Element types are the two the
// generator supports: int64 kernels compare bitwise, float64 kernels
// within a relative tolerance.

// Elem is an element type a generated nest may compute over.
type Elem interface {
	~int64 | ~float64
}

// randElem draws one element from a seeded source: small signed
// integers for int64 (products stay well inside the mantissa and the
// oracle compares bitwise), uniform [0,1) for float64.
func randElem[T Elem](rng *rand.Rand) T {
	var z T
	switch any(z).(type) {
	case int64:
		return T(rng.Intn(19) - 9)
	default:
		return T(rng.Float64())
	}
}

// RandVec returns a deterministic seeded vector of length n.
func RandVec[T Elem](n int, seed int64) []T {
	rng := rand.New(rand.NewSource(seed))
	out := make([]T, n)
	for i := range out {
		out[i] = randElem[T](rng)
	}
	return out
}

// RandGrid returns a deterministic seeded rows×cols grid.
func RandGrid[T Elem](rows, cols int, seed int64) [][]T {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]T, rows)
	for i := range out {
		out[i] = make([]T, cols)
		for j := range out[i] {
			out[i][j] = randElem[T](rng)
		}
	}
	return out
}

// CloneVec deep-copies a vector (the oracle runs on its own copy).
func CloneVec[T Elem](v []T) []T {
	out := make([]T, len(v))
	copy(out, v)
	return out
}

// CloneGrid deep-copies a grid.
func CloneGrid[T Elem](g [][]T) [][]T {
	out := make([][]T, len(g))
	for i := range g {
		out[i] = CloneVec(g[i])
	}
	return out
}

// CompareVec checks got against want element-wise. tol is the relative
// tolerance for float64 elements; integer elements always compare
// bitwise (tol is ignored). The first mismatch is returned as an error
// naming the array and index.
func CompareVec[T Elem](name string, got, want []T, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("genrun: %s: length %d, want %d", name, len(got), len(want))
	}
	for i := range got {
		if !elemEqual(got[i], want[i], tol) {
			return fmt.Errorf("genrun: %s[%d] = %v, want %v", name, i, got[i], want[i])
		}
	}
	return nil
}

// CompareGrid checks got against want element-wise (see CompareVec).
func CompareGrid[T Elem](name string, got, want [][]T, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("genrun: %s: %d rows, want %d", name, len(got), len(want))
	}
	for i := range got {
		if err := CompareVec(fmt.Sprintf("%s[%d]", name, i), got[i], want[i], tol); err != nil {
			return err
		}
	}
	return nil
}

func elemEqual[T Elem](got, want T, tol float64) bool {
	switch g := any(got).(type) {
	case float64:
		w := any(want).(float64)
		if g == w {
			return true
		}
		if math.IsNaN(g) || math.IsNaN(w) {
			return false
		}
		scale := math.Max(math.Abs(g), math.Abs(w))
		return math.Abs(g-w) <= tol*math.Max(scale, 1)
	default:
		return got == want
	}
}

// ---------------------------------------------------------------------
// The program registry: generated sources self-register each variant in
// an init function, which is what lets tests and examples run a
// generated program by name and enumerate everything the generator
// produced without importing it by symbol.

// Program is one registered generated program variant, self-contained:
// Run allocates its own seeded inputs, executes the variant on the
// provided system, and verifies the result against the sequential nest
// before returning.
type Program struct {
	// Nest is the sequential source function's name ("MatmulIJK").
	Nest string
	// Variant is the transformation stage this program implements.
	Variant Variant
	// Dist describes the data distribution the program was generated
	// for ("block(j)").
	Dist string
	// SizeParams names the nest's size parameters in order; Run's sizes
	// argument binds them positionally.
	SizeParams []string
	// Run executes the program on sys with the given PE count, size
	// bindings, and input seed, and returns a non-nil error if the
	// result diverges from the sequential oracle.
	Run func(sys *navp.System, pes int, sizes []int, seed int64) error
}

// Name returns the registry key, "<Nest>/<variant>".
func (p Program) Name() string { return p.Nest + "/" + p.Variant.String() }

var (
	regMu    sync.RWMutex
	registry = map[string]Program{}
)

// Register adds a generated program to the registry. Registering two
// programs under one name is a generator bug and panics.
func Register(p Program) {
	if p.Run == nil {
		panic("genrun: Register: program without a Run")
	}
	regMu.Lock()
	defer regMu.Unlock()
	name := p.Name()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("genrun: duplicate program %q", name))
	}
	registry[name] = p
}

// Lookup returns the program registered under name.
func Lookup(name string) (Program, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	p, ok := registry[name]
	return p, ok
}

// Programs returns all registered programs sorted by name.
func Programs() []Program {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Program, 0, len(registry))
	for _, p := range registry {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}
