package gen

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/token"
	"strconv"
	"strings"
)

// modulePath is the import prefix of the generated code's dependencies.
const modulePath = "repro"

// Emit renders one nest's generated file: the agent state struct, the
// three NavP variant functions, the pipelined grouping key, the
// execution-plan constructor, the CheckPlans re-proof, and the registry
// init. The output is gofmt-formatted and byte-stable: everything is
// derived deterministically from the nest, with no timestamps and no
// map iteration.
func Emit(n *Nest, pkgName string) ([]byte, error) {
	shapes, err := classify(n)
	if err != nil {
		return nil, err
	}
	e := &emitter{n: n, shapes: shapes}
	for _, p := range n.Params {
		if p.Dims == 0 {
			continue
		}
		if _, err := e.paramExtents(p); err != nil {
			return nil, fmt.Errorf("gen: %s: %v", n.Name, err)
		}
	}
	e.file(pkgName)
	src, err := format.Source(e.buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("gen: %s: generated source does not parse: %w\n%s", n.Name, err, e.buf.Bytes())
	}
	return src, nil
}

// FileName returns the canonical file name for a nest's generated
// source.
func FileName(n *Nest) string {
	return strings.ToLower(n.Name) + "_navp.go"
}

type emitter struct {
	buf    bytes.Buffer
	n      *Nest
	shapes []refShape
}

func (e *emitter) p(format string, args ...any) {
	fmt.Fprintf(&e.buf, format+"\n", args...)
}

// lowerFirst downcases a name's first rune ("MatmulIJK" → "matmulIJK").
func lowerFirst(s string) string {
	if s == "" {
		return s
	}
	return strings.ToLower(s[:1]) + s[1:]
}

// upperFirst upcases a name's first rune ("i" → "I").
func upperFirst(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

// ---------------------------------------------------------------------
// Small renderers over the nest.

// stateType names the generated agent-state struct.
func (e *emitter) stateType() string { return lowerFirst(e.n.Name) + "State" }

// groupFn names the generated pipelined grouping function.
func (e *emitter) groupFn() string { return lowerFirst(e.n.Name) + "Group" }

// paramsSig renders the nest's parameters as a signature fragment.
func (e *emitter) paramsSig() string {
	parts := make([]string, len(e.n.Params))
	for i, p := range e.n.Params {
		parts[i] = p.Name + " " + p.TypeSrc()
	}
	return strings.Join(parts, ", ")
}

// argList renders the nest's parameters as a call-argument fragment.
func (e *emitter) argList() string {
	parts := make([]string, len(e.n.Params))
	for i, p := range e.n.Params {
		parts[i] = p.Name
	}
	return strings.Join(parts, ", ")
}

// distArgs renders the distributed range arguments every genrun
// distribution call takes: "lo, hi, pes".
func (e *emitter) distArgs() string {
	d := e.n.DistLoop()
	return fmt.Sprintf("%s, %s, pes", d.LoSrc, d.HiSrc)
}

// flopsSrc renders the per-item flops model: operation count times
// inner trip counts, times the chunk length under block distribution.
func (e *emitter) flopsSrc() string {
	factors := []string{strconv.Itoa(e.n.OpCount)}
	if e.n.Dist.Kind == Block {
		factors = append(factors, fmt.Sprintf("genrun.BlockLen(p, %s)", e.distArgs()))
	}
	for _, l := range e.n.InnerLoops() {
		factors = append(factors, parenIf(l.Trip()))
	}
	return "float64(" + strings.Join(factors, "*") + ")"
}

// rotArg renders the thread index fed to genrun.Rotation: the outer
// variable's offset from its lower bound.
func (e *emitter) rotArg() string {
	o := e.n.OuterLoop()
	if o.LoSrc == "0" {
		return o.Var
	}
	return fmt.Sprintf("%s-(%s)", o.Var, o.LoSrc)
}

// rotLen renders the length of the rotated visit sequence: the chunk
// count under block distribution, the distributed trip count under
// cyclic.
func (e *emitter) rotLen() string {
	if e.n.Dist.Kind == Block {
		return "pes"
	}
	return "span"
}

// alias renders the carried-state re-read that opens every generated
// compute body: the outer loop index is taken from the agent struct,
// not the injection-site closure, which is what makes the folded state
// real rather than decorative.
func (e *emitter) alias() string {
	o := e.n.OuterLoop()
	if !e.n.BodyVars[o.Var] {
		return ""
	}
	return fmt.Sprintf("%s := st.%s", o.Var, upperFirst(o.Var))
}

// carryExpr renders the per-hop carry payload.
func (e *emitter) carryExpr() string {
	return "int64(" + carrySrc(e.n, e.shapes) + ")"
}

// ---------------------------------------------------------------------
// File assembly.

func (e *emitter) file(pkgName string) {
	n := e.n
	e.p("// Code generated by navpgen. DO NOT EDIT.")
	e.p("//")
	e.p("// Source nest:  %s (%s)", n.Name, n.Pos())
	e.p("// Distribution: %s, PE count bound at run time", n.Dist)
	e.p("// Variants:     dsc, pipe, phase (DESIGN.md §17)")
	e.p("//")
	e.p("// Regenerate:")
	e.p("//")
	e.p("//\tgo run %s/cmd/navpgen -pkg <package dir>", modulePath)
	e.p("package %s", pkgName)
	e.p("")
	e.p("import (")
	e.p("\t\"fmt\"")
	e.p("")
	e.p("\t%q", modulePath+"/internal/core")
	e.p("\t%q", modulePath+"/internal/gen/genrun")
	e.p("\t%q", modulePath+"/internal/navp")
	e.p(")")
	e.state()
	e.variantFunc(0)
	e.variantFunc(1)
	e.variantFunc(2)
	e.group()
	e.plan()
	e.checkPlans()
	e.register()
}

// state emits the agent-state struct: the loop-carried variables that
// survive a hop, folded out of the sequential nest.
func (e *emitter) state() {
	o := e.n.OuterLoop()
	e.p("")
	e.p("// %s is the loop-carried state of one %s agent: the", e.stateType(), e.n.Name)
	e.p("// outer loop index that must survive every hop.")
	e.p("type %s struct {", e.stateType())
	e.p("\t%s int // loop variable %s", upperFirst(o.Var), o.Var)
	e.p("}")
}

// variantFunc emits one of the three generated NavP programs.
// variant: 0 = DSC, 1 = pipelined, 2 = phase-shifted.
func (e *emitter) variantFunc(variant int) {
	n, o := e.n, e.n.OuterLoop()
	suffix := [...]string{"DSC", "Pipelined", "PhaseShifted"}[variant]
	short := [...]string{"dsc", "pipe", "phase"}[variant]
	e.p("")
	switch variant {
	case 0:
		e.p("// %s%s is the DSC'd NavP program for %s under %s:", n.Name, suffix, n.Name, n.Dist)
		e.p("// one agent executes the nest in sequential order, hopping to the")
		e.p("// owner of each distributed piece and carrying the folded loop state.")
	case 1:
		e.p("// %s%s is the pipelined NavP program for %s: one agent", n.Name, suffix, n.Name)
		e.p("// per outer index %s, injected in order at the first owner so the", o.Var)
		e.p("// agents follow each other through the PEs.")
	case 2:
		e.p("// %s%s is the phase-shifted NavP program for %s: each", n.Name, suffix, n.Name)
		e.p("// pipelined agent's visit sequence is rotated so agents enter the")
		e.p("// network at distinct PEs and all PEs compute from the start.")
	}
	e.p("func %s%s(sys *navp.System, pes int, %s) error {", n.Name, suffix, e.paramsSig())
	e.p("\tif err := genrun.CheckPEs(sys, pes); err != nil {")
	e.p("\t\treturn fmt.Errorf(\"navpgen: %s/%s: %%w\", err)", n.Name, short)
	e.p("\t}")
	e.p("\tcarry := sys.Var(\"st\")")

	if variant == 0 {
		e.p("\terr := sys.Inject(%s, %q, func(ag *navp.Agent) {", e.entryNode(false), n.Name+"/"+short)
		e.p("\t\tfor %s := %s; %s < %s; %s++ {", o.Var, o.LoSrc, o.Var, o.HiSrc, o.Var)
		e.p("\t\t\tst := &%s{%s: %s}", e.stateType(), upperFirst(o.Var), o.Var)
		e.p("\t\t\tag.Set(carry, st, %s)", e.carryExpr())
		e.visit(false)
		e.p("\t\t}")
		e.p("\t})")
		e.p("\tif err != nil {")
		e.p("\t\treturn err")
		e.p("\t}")
		e.p("\treturn sys.Run()")
		e.p("}")
		return
	}

	// Pipelined and phase-shifted: one agent per outer index.
	phase := variant == 2
	e.p("\tfor %s := %s; %s < %s; %s++ {", o.Var, o.LoSrc, o.Var, o.HiSrc, o.Var)
	e.p("\t\tst := &%s{%s: %s}", e.stateType(), upperFirst(o.Var), o.Var)
	if phase {
		if e.n.Dist.Kind == Cyclic {
			e.p("\t\tspan := %s", parenIf(e.n.DistLoop().Trip()))
		}
		e.p("\t\trot := genrun.Rotation(%s, %s)", e.rotArg(), e.rotLen())
	}
	e.p("\t\terr := sys.Inject(%s, fmt.Sprintf(\"%s/%s/%%d\", %s), func(ag *navp.Agent) {", e.entryNode(phase), n.Name, short, o.Var)
	e.p("\t\t\tag.Set(carry, st, %s)", e.carryExpr())
	e.visit(phase)
	e.p("\t\t})")
	e.p("\t\tif err != nil {")
	e.p("\t\t\treturn err")
	e.p("\t\t}")
	e.p("\t}")
	e.p("\treturn sys.Run()")
	e.p("}")
}

// entryNode renders the PE an agent is injected at: the owner of its
// first visit.
func (e *emitter) entryNode(phase bool) string {
	d := e.n.DistLoop()
	if e.n.Dist.Kind == Block {
		if phase {
			return "rot"
		}
		return "0"
	}
	if phase {
		return fmt.Sprintf("genrun.CyclicOwner(%s+rot, %s, pes)", d.LoSrc, d.LoSrc)
	}
	return "0"
}

// visit emits the agent's hop-and-compute walk over the distributed
// dimension. Indentation is nominal; gofmt settles it.
func (e *emitter) visit(phase bool) {
	n, d := e.n, e.n.DistLoop()
	alias := e.alias()
	body := func() {
		if alias != "" {
			e.p("\t\t\t%s", alias)
		}
		for _, s := range n.DistBodySrc() {
			e.p("%s", s)
		}
	}
	if n.Dist.Kind == Block {
		if phase {
			e.p("\t\tfor q := 0; q < pes; q++ {")
			e.p("\t\t\tp := (q + rot) %% pes")
		} else {
			e.p("\t\tfor p := 0; p < pes; p++ {")
		}
		e.p("\t\t\t// Hop to the owner of chunk p of %s ∈ [%s, %s).", d.Var, d.LoSrc, d.HiSrc)
		e.p("\t\t\tag.Hop(p)")
		e.p("\t\t\tlo, hi := genrun.BlockRange(p, %s)", e.distArgs())
		e.p("\t\t\tag.Compute(%s, func() {", e.flopsSrc())
		if alias != "" {
			e.p("\t\t\t\t%s", alias)
		}
		e.p("\t\t\t\tfor %s := lo; %s < hi; %s++ {", d.Var, d.Var, d.Var)
		for _, s := range n.DistBodySrc() {
			e.p("%s", s)
		}
		e.p("\t\t\t\t}")
		e.p("\t\t\t})")
		e.p("\t\t}")
		return
	}
	// Cyclic: one hop per distributed index.
	if phase {
		e.p("\t\tfor q := 0; q < span; q++ {")
		if d.LoSrc == "0" {
			e.p("\t\t\t%s := (q + rot) %% span", d.Var)
		} else {
			e.p("\t\t\t%s := %s + (q+rot)%%span", d.Var, d.LoSrc)
		}
	} else {
		e.p("\t\tfor %s := %s; %s < %s; %s++ {", d.Var, d.LoSrc, d.Var, d.HiSrc, d.Var)
	}
	e.p("\t\t\t// Hop to the cyclic owner of index %s.", d.Var)
	e.p("\t\t\tag.Hop(genrun.CyclicOwner(%s, %s, pes))", d.Var, d.LoSrc)
	e.p("\t\t\tag.Compute(%s, func() {", e.flopsSrc())
	body()
	e.p("\t\t\t})")
	e.p("\t\t}")
}

// group emits the pipelined grouping key: one agent per outer index.
func (e *emitter) group() {
	n, o := e.n, e.n.OuterLoop()
	second := "p"
	if n.Dist.Kind == Cyclic {
		second = n.DistLoop().Var
	}
	e.p("")
	e.p("// %s keys a plan item to its pipelined agent: one agent per", e.groupFn())
	e.p("// outer index %s.", o.Var)
	e.p("func %s(it core.Item) string {", e.groupFn())
	e.p("\tvar %s, %s int", o.Var, second)
	e.p("\tfmt.Sscanf(it.ID, \"it(%%d,%%d)\", &%s, &%s)", o.Var, second)
	e.p("\treturn fmt.Sprintf(\"g%%d\", %s)", o.Var)
	e.p("}")
}

// plan emits the execution-plan constructor: the same items the agents
// execute, with the declared data footprint core.Check verifies and
// planfootprint audits.
func (e *emitter) plan() {
	n, o, d := e.n, e.n.OuterLoop(), e.n.DistLoop()
	e.p("")
	e.p("// %sPlan builds the execution plan of the generated program for", n.Name)
	e.p("// variant v: one item per hop stop, each declaring the footprint")
	e.p("// cells it touches, DSC'd in sequential order and rewritten per the")
	e.p("// variant. core.Check proves the rewrite preserves the nest's")
	e.p("// sequential dependences; planfootprint audits the bodies against")
	e.p("// the declared cells.")
	e.p("func %sPlan(v genrun.Variant, pes int, %s) *core.Plan {", n.Name, e.paramsSig())
	e.p("\tvar items []core.Item")
	e.p("\tfor %s := %s; %s < %s; %s++ {", o.Var, o.LoSrc, o.Var, o.HiSrc, o.Var)
	if n.Dist.Kind == Block {
		e.p("\t\tfor p := 0; p < pes; p++ {")
		e.p("\t\t\titems = append(items, core.Item{")
		e.p("\t\t\t\tID:    fmt.Sprintf(\"it(%%d,%%d)\", %s, p),", o.Var)
		e.p("\t\t\t\tNode:  p,")
		e.p("\t\t\t\tFlops: %s,", e.flopsSrc())
		e.p("\t\t\t\tAccesses: []core.Access{")
		for _, entry := range e.accessEntries() {
			e.p("\t\t\t\t\t%s", entry)
		}
		e.p("\t\t\t\t},")
		e.p("\t\t\t\tFn: func() {")
		e.p("\t\t\t\t\tlo, hi := genrun.BlockRange(p, %s)", e.distArgs())
		e.p("\t\t\t\t\tfor %s := lo; %s < hi; %s++ {", d.Var, d.Var, d.Var)
		for _, s := range n.DistBodySrc() {
			e.p("%s", s)
		}
		e.p("\t\t\t\t\t}")
		e.p("\t\t\t\t},")
		e.p("\t\t\t})")
		e.p("\t\t}")
	} else {
		e.p("\t\tfor %s := %s; %s < %s; %s++ {", d.Var, d.LoSrc, d.Var, d.HiSrc, d.Var)
		e.p("\t\t\titems = append(items, core.Item{")
		e.p("\t\t\t\tID:    fmt.Sprintf(\"it(%%d,%%d)\", %s, %s),", o.Var, d.Var)
		e.p("\t\t\t\tNode:  genrun.CyclicOwner(%s, %s, pes),", d.Var, d.LoSrc)
		e.p("\t\t\t\tFlops: %s,", e.flopsSrc())
		e.p("\t\t\t\tAccesses: []core.Access{")
		for _, entry := range e.accessEntries() {
			e.p("\t\t\t\t\t%s", entry)
		}
		e.p("\t\t\t\t},")
		e.p("\t\t\t\tFn: func() {")
		for _, s := range n.DistBodySrc() {
			e.p("%s", s)
		}
		e.p("\t\t\t\t},")
		e.p("\t\t\t})")
		e.p("\t\t}")
	}
	e.p("\t}")
	e.p("\tplan := core.DSC(%q, items, %s)", n.Name, e.carryExpr())
	e.p("\tswitch v {")
	e.p("\tcase genrun.Pipelined:")
	e.p("\t\tplan = core.Pipeline(plan, %s)", e.groupFn())
	e.p("\tcase genrun.PhaseShifted:")
	e.p("\t\tplan = core.PhaseShift(core.Pipeline(plan, %s), nil)", e.groupFn())
	e.p("\t}")
	e.p("\treturn plan")
	e.p("}")
}

// accessEntries renders the declared footprint of one item as
// core.Access composite-literal entries. Exact subscripts carry their
// source expression through %d; inner subscripts wildcard to "*";
// block-distributed subscripts summarize to chunk cells (the chunk
// itself for the bare variable, the two endpoint owners for a ghost
// offset).
func (e *emitter) accessEntries() []string {
	var out []string
	for _, s := range e.shapes {
		formats := []string{""}
		args := [][]string{nil}
		addAll := func(f string, a string) {
			for i := range formats {
				if formats[i] != "" {
					formats[i] += ","
				}
				formats[i] += f
				if a != "" {
					args[i] = append(append([]string(nil), args[i]...), a)
				}
			}
		}
		for i, k := range s.kinds {
			switch k {
			case posWild:
				addAll("*", "")
			case posExact:
				addAll("%d", s.ref.IndexSrc[i])
			case posDist:
				if e.n.Dist.Kind == Cyclic {
					addAll("%d", s.ref.IndexSrc[i])
					continue
				}
				if s.shift == 0 {
					addAll("b%d", "p")
					continue
				}
				shift := fmt.Sprintf("%+d", s.shift)
				loOwner := fmt.Sprintf("genrun.BlockOwner(genrun.BlockLo(p, %s)%s, %s)", e.distArgs(), shift, e.distArgs())
				hiOwner := fmt.Sprintf("genrun.BlockOwner(genrun.BlockHi(p, %s)-1%s, %s)", e.distArgs(), shift, e.distArgs())
				var nf []string
				var na [][]string
				for j := range formats {
					f := formats[j]
					if f != "" {
						f += ","
					}
					nf = append(nf, f+"b%d", f+"b%d")
					na = append(na,
						append(append([]string(nil), args[j]...), loOwner),
						append(append([]string(nil), args[j]...), hiOwner))
				}
				formats, args = nf, na
			}
		}
		for j := range formats {
			var cell string
			if len(args[j]) == 0 {
				cell = fmt.Sprintf("%q", s.ref.Array+"("+formats[j]+")")
			} else {
				cell = fmt.Sprintf("fmt.Sprintf(%q, %s)", s.ref.Array+"("+formats[j]+")", strings.Join(args[j], ", "))
			}
			entry := "{Cell: " + cell
			if s.ref.Write {
				entry += ", Write: true"
			}
			if s.ref.Commutative {
				entry += ", Commutative: true"
			}
			entry += "},"
			out = append(out, entry)
		}
	}
	return out
}

// checkPlans emits the shape-specific re-proof: core.Check over every
// variant's plan at the caller's real problem shape.
func (e *emitter) checkPlans() {
	n := e.n
	nils := make([]string, 0, len(n.Params))
	var sizeSig []string
	for _, p := range n.Params {
		if p.Dims == 0 {
			nils = append(nils, p.Name)
			sizeSig = append(sizeSig, p.Name+" int")
		} else {
			nils = append(nils, "nil")
		}
	}
	e.p("")
	e.p("// %sCheckPlans re-proves, at the given shape, that every generated", n.Name)
	e.p("// variant of %s preserves the sequential nest's dependences.", n.Name)
	e.p("func %sCheckPlans(pes int, %s) error {", n.Name, strings.Join(sizeSig, ", "))
	e.p("\tfor _, v := range genrun.Variants {")
	e.p("\t\tviol, err := core.Check(%sPlan(v, pes, %s))", n.Name, strings.Join(nils, ", "))
	e.p("\t\tif err != nil {")
	e.p("\t\t\treturn fmt.Errorf(\"navpgen: %s/%%s: %%w\", v, err)", n.Name)
	e.p("\t\t}")
	e.p("\t\tif len(viol) != 0 {")
	e.p("\t\t\treturn fmt.Errorf(\"navpgen: %s/%%s: %%d dependence violation(s), first: %%v\", v, len(viol), viol[0])", n.Name)
	e.p("\t\t}")
	e.p("\t}")
	e.p("\treturn nil")
	e.p("}")
}

// register emits the registry init: every variant becomes a
// self-verifying genrun.Program, which is what makes generated code
// runnable by name and enumerable by tests.
func (e *emitter) register() {
	n := e.n
	var sizeNames []string
	for _, sp := range n.SizeParams {
		sizeNames = append(sizeNames, sp)
	}
	e.p("")
	e.p("func init() {")
	e.p("\tfor _, v := range genrun.Variants {")
	e.p("\t\tgenrun.Register(genrun.Program{")
	e.p("\t\t\tNest:       %q,", n.Name)
	e.p("\t\t\tVariant:    v,")
	e.p("\t\t\tDist:       %q,", n.Dist.String())
	e.p("\t\t\tSizeParams: []string{%s},", quotedList(sizeNames))
	e.p("\t\t\tRun: func(sys *navp.System, pes int, sizes []int, seed int64) error {")
	e.p("\t\t\t\tif len(sizes) != %d {", len(sizeNames))
	e.p("\t\t\t\t\treturn fmt.Errorf(\"navpgen: %s: want %d size(s) (%s), got %%d\", len(sizes))",
		n.Name, len(sizeNames), strings.Join(sizeNames, ", "))
	e.p("\t\t\t\t}")
	for i, sp := range n.SizeParams {
		e.p("\t\t\t\t%s := sizes[%d]", sp, i)
	}
	e.emitAlloc()
	e.p("\t\t\t\tvar err error")
	e.p("\t\t\t\tswitch v {")
	e.p("\t\t\t\tcase genrun.DSC:")
	e.p("\t\t\t\t\terr = %sDSC(sys, pes, %s)", n.Name, e.argList())
	e.p("\t\t\t\tcase genrun.Pipelined:")
	e.p("\t\t\t\t\terr = %sPipelined(sys, pes, %s)", n.Name, e.argList())
	e.p("\t\t\t\tdefault:")
	e.p("\t\t\t\t\terr = %sPhaseShifted(sys, pes, %s)", n.Name, e.argList())
	e.p("\t\t\t\t}")
	e.p("\t\t\t\tif err != nil {")
	e.p("\t\t\t\t\treturn err")
	e.p("\t\t\t\t}")
	e.emitCompare()
	e.p("\t\t\t},")
	e.p("\t\t})")
	e.p("\t}")
	e.p("}")
}

// emitAlloc emits seeded input allocation for every array parameter and
// the oracle run of the sequential nest over clones of the written
// arrays.
func (e *emitter) emitAlloc() {
	n := e.n
	written := n.writtenArrays()
	seedOff := 0
	for _, p := range n.Params {
		if p.Dims == 0 {
			continue
		}
		extents, err := e.paramExtents(p)
		if err != nil {
			// Extraction already validated this; emit a poison line so a
			// regression is caught by the compile step, not silently.
			e.p("\t\t\t\tcompile error: %s", err)
			continue
		}
		seedExpr := "seed"
		if seedOff > 0 {
			seedExpr = fmt.Sprintf("seed+%d", seedOff)
		}
		if p.Dims == 1 {
			e.p("\t\t\t\t%s := genrun.RandVec[%s](%s, %s)", p.Name, p.Elem, extents[0], seedExpr)
		} else {
			e.p("\t\t\t\t%s := genrun.RandGrid[%s](%s, %s, %s)", p.Name, p.Elem, extents[0], extents[1], seedExpr)
		}
		seedOff++
	}
	// Oracle: run the sequential nest over clones of the written
	// arrays, so the generated program's output has ground truth.
	oracleArgs := make([]string, len(n.Params))
	for i, p := range n.Params {
		oracleArgs[i] = p.Name
		if p.Dims == 0 || !written[p.Name] {
			continue
		}
		clone := "CloneGrid"
		if p.Dims == 1 {
			clone = "CloneVec"
		}
		e.p("\t\t\t\twant%s := genrun.%s(%s)", upperFirst(p.Name), clone, p.Name)
		oracleArgs[i] = "want" + upperFirst(p.Name)
	}
	e.p("\t\t\t\t%s(%s)", n.Name, strings.Join(oracleArgs, ", "))
}

// emitCompare emits the oracle comparison for every written array:
// bitwise for integer elements, relative tolerance for float64.
func (e *emitter) emitCompare() {
	n := e.n
	written := n.writtenArrays()
	tol := "1e-12"
	if n.Elem == "int64" {
		tol = "0"
	}
	var checks []string
	for _, p := range n.Params {
		if p.Dims == 0 || !written[p.Name] {
			continue
		}
		cmp := "CompareGrid"
		if p.Dims == 1 {
			cmp = "CompareVec"
		}
		checks = append(checks, fmt.Sprintf("genrun.%s(%q, %s, want%s, %s)", cmp, p.Name, p.Name, upperFirst(p.Name), tol))
	}
	for i, c := range checks {
		if i == len(checks)-1 {
			e.p("\t\t\t\treturn %s", c)
			return
		}
		e.p("\t\t\t\tif err := %s; err != nil {", c)
		e.p("\t\t\t\t\treturn err")
		e.p("\t\t\t\t}")
	}
}

// paramExtents derives each dimension's allocation extent for an array
// parameter: the upper bound of the loop variable subscripting that
// dimension, widened by the largest positive ghost offset.
func (e *emitter) paramExtents(p Param) ([]string, error) {
	n := e.n
	vars := make([]string, p.Dims)
	maxShift := make([]int, p.Dims)
	for _, s := range e.shapes {
		if s.ref.Array != p.Name {
			continue
		}
		for i, ie := range s.ref.Index {
			v, c, ok := varShift(ie)
			if !ok {
				return nil, fmt.Errorf("cannot infer extent of %s dimension %d from subscript %q", p.Name, i, s.ref.IndexSrc[i])
			}
			if _, isLoop := n.loopByVar(v); !isLoop {
				return nil, fmt.Errorf("subscript %q of %s is not loop-relative", s.ref.IndexSrc[i], p.Name)
			}
			if vars[i] == "" {
				vars[i] = v
			} else if vars[i] != v {
				return nil, fmt.Errorf("dimension %d of %s is subscripted by both %q and %q", i, p.Name, vars[i], v)
			}
			if c > maxShift[i] {
				maxShift[i] = c
			}
		}
	}
	out := make([]string, p.Dims)
	for i, v := range vars {
		if v == "" {
			return nil, fmt.Errorf("dimension %d of %s is never subscripted", i, p.Name)
		}
		l, _ := n.loopByVar(v)
		if maxShift[i] > 0 {
			out[i] = fmt.Sprintf("%s+%d", parenIf(l.HiSrc), maxShift[i])
		} else {
			out[i] = l.HiSrc
		}
	}
	return out, nil
}

// varShift matches a subscript of the form v, v+c, v-c, or c+v for a
// single identifier v, returning the identifier and the signed offset.
func varShift(e ast.Expr) (string, int, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name, 0, true
	case *ast.BinaryExpr:
		if x.Op != token.ADD && x.Op != token.SUB {
			return "", 0, false
		}
		if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			if c, ok := intLit(x.Y); ok {
				if x.Op == token.SUB {
					return id.Name, -c, true
				}
				return id.Name, c, true
			}
		}
		if id, ok := ast.Unparen(x.Y).(*ast.Ident); ok && x.Op == token.ADD {
			if c, ok := intLit(x.X); ok {
				return id.Name, c, true
			}
		}
	}
	return "", 0, false
}

// quotedList renders a comma-separated list of quoted strings.
func quotedList(items []string) string {
	parts := make([]string, len(items))
	for i, s := range items {
		parts[i] = strconv.Quote(s)
	}
	return strings.Join(parts, ", ")
}
