// Package gen is navpgen: a mechanical source-to-source transformer
// that turns an annotated sequential Go loop nest plus a data
// distribution into the paper's three NavP programs — the DSC'd
// migrating agent, the pipelined agent family, and the phase-shifted
// agent family — as compilable Go source targeting internal/navp, with
// a generated execution-plan constructor targeting internal/core so
// every emitted program is dependence-checkable (DESIGN.md §17).
//
// The pipeline is select → dependence facts → DSC insertion →
// pipeline/phase-shift rewrites → verify:
//
//  1. nest.go extracts the loop nest (annotated //navpgen:loopnest, or
//     selected by flag) from a type-checked package via analysis/load,
//     and gates it on the analysis/facts summary (a nest body must not
//     hop, block, or externalize).
//  2. deps.go classifies every array reference against the
//     distribution — node-resident vs agent-carried, exact vs
//     block-summarized footprint cells — and derives the dependence
//     model the emitted plan declares.
//  3. plan.go builds sample execution plans in memory and runs
//     core.Check over every variant at several shapes; a transformation
//     that would reorder a dependence is refused at generation time.
//  4. emit.go prints the generated source: Hop calls at distribution
//     boundaries, loop-carried state folded into an agent struct,
//     staggered injection for pipelining, rotated entry PEs for phase
//     shifting, and the core.Plan constructor mirroring it all.
package gen

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/facts"
	"repro/internal/analysis/load"
)

// Annotation is the nest-selection marker the generator scans for:
//
//	//navpgen:loopnest dist=block(j)
//
// attached to the doc comment of a sequential function.
const Annotation = "//navpgen:loopnest"

// Param is one parameter of the sequential nest function.
type Param struct {
	Name string
	// Dims is the array rank: 0 for an int size parameter, 1 for []T,
	// 2 for [][]T.
	Dims int
	// Elem is the element type of an array parameter ("float64",
	// "int64"); empty for int parameters.
	Elem string
}

// TypeSrc renders the parameter's type.
func (p Param) TypeSrc() string {
	if p.Dims == 0 {
		return "int"
	}
	return strings.Repeat("[]", p.Dims) + p.Elem
}

// Loop is one counted loop of the nest: for Var := Lo; Var < Hi; Var++.
type Loop struct {
	Var    string
	Lo, Hi ast.Expr
	LoSrc  string
	HiSrc  string
}

// Trip renders the loop's iteration count as a Go expression.
func (l Loop) Trip() string {
	if l.LoSrc == "0" {
		return l.HiSrc
	}
	return fmt.Sprintf("%s - (%s)", l.HiSrc, l.LoSrc)
}

// Ref is one array reference of the innermost body.
type Ref struct {
	Array string
	// Index holds the reference's index expressions, outermost first.
	Index []ast.Expr
	// IndexSrc is each index expression rendered to source.
	IndexSrc []string
	// Write marks the nest mutating the cell; Commutative marks a
	// reduction-style += update.
	Write       bool
	Commutative bool
}

// key identifies a reference for deduplication.
func (r Ref) key() string {
	return fmt.Sprintf("%s[%s]w=%v,c=%v", r.Array, strings.Join(r.IndexSrc, "]["), r.Write, r.Commutative)
}

// Nest is a fully extracted and validated sequential loop nest.
type Nest struct {
	Name   string
	Dist   Dist
	Params []Param
	// SizeParams are the int parameters in declaration order.
	SizeParams []string
	// Loops are the nest's counted loops, outermost first.
	Loops []Loop
	// DistIdx is the index in Loops of the distributed dimension.
	// The generator requires exactly one loop outside it (the pipeline
	// dimension, Loops[0]), so DistIdx is always 1.
	DistIdx int
	// Refs are the deduplicated array references of the innermost body.
	Refs []Ref
	// Elem is the shared element type of the nest's arrays.
	Elem string
	// OpCount is the arithmetic operations per innermost iteration
	// (the emitted Flops model).
	OpCount int
	// BodyVars records which loop variables the distributed loop's
	// body actually references (drives carried-state aliasing).
	BodyVars map[string]bool

	pkg     *load.Package
	decl    *ast.FuncDecl
	distFor *ast.ForStmt
	// distBody is the distributed loop's body: the statements the
	// generated Compute executes (inner loops included), printed
	// verbatim.
	distBody []ast.Stmt
}

// exprSrc renders an expression back to source text.
func exprSrc(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return fmt.Sprintf("<%T>", e)
	}
	return buf.String()
}

// stmtSrc renders a statement back to source text.
func stmtSrc(fset *token.FileSet, s ast.Stmt) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, s); err != nil {
		return fmt.Sprintf("<%T>", s)
	}
	return buf.String()
}

// DistBodySrc renders the distributed loop's body statements.
func (n *Nest) DistBodySrc() []string {
	out := make([]string, len(n.distBody))
	for i, s := range n.distBody {
		out[i] = stmtSrc(n.pkg.Fset, s)
	}
	return out
}

// Pos renders the nest's declaration position for generated headers.
func (n *Nest) Pos() string {
	p := n.pkg.Fset.Position(n.decl.Pos())
	short := p.Filename
	if i := strings.LastIndexByte(short, '/'); i >= 0 {
		short = short[i+1:]
	}
	return fmt.Sprintf("%s:%d", short, p.Line)
}

// OuterLoop returns the pipeline dimension (the loop outside the
// distributed one).
func (n *Nest) OuterLoop() Loop { return n.Loops[0] }

// DistLoop returns the distributed dimension.
func (n *Nest) DistLoop() Loop { return n.Loops[n.DistIdx] }

// InnerLoops returns the loops strictly inside the distributed one.
func (n *Nest) InnerLoops() []Loop { return n.Loops[n.DistIdx+1:] }

// innerVars returns the set of inner-loop variables.
func (n *Nest) innerVars() map[string]bool {
	out := map[string]bool{}
	for _, l := range n.InnerLoops() {
		out[l.Var] = true
	}
	return out
}

// loopByVar returns the loop with the given variable.
func (n *Nest) loopByVar(v string) (Loop, bool) {
	for _, l := range n.Loops {
		if l.Var == v {
			return l, true
		}
	}
	return Loop{}, false
}

// paramByName returns the parameter with the given name.
func (n *Nest) paramByName(name string) (Param, bool) {
	for _, p := range n.Params {
		if p.Name == name {
			return p, true
		}
	}
	return Param{}, false
}

// writtenArrays returns the set of array parameters the nest mutates.
func (n *Nest) writtenArrays() map[string]bool {
	out := map[string]bool{}
	for _, r := range n.Refs {
		if r.Write {
			out[r.Array] = true
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Extraction.

// AnnotatedNests scans the package for functions carrying the
// //navpgen:loopnest annotation and extracts each against its declared
// distribution. The facts set gates every nest (see ExtractNest).
func AnnotatedNests(pkg *load.Package, fs *facts.Set) ([]*Nest, error) {
	var out []*Nest
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Doc == nil {
				continue
			}
			spec, found, err := annotationOf(fn)
			if err != nil {
				return nil, err
			}
			if !found {
				continue
			}
			nest, err := ExtractNest(pkg, fs, fn.Name.Name, spec)
			if err != nil {
				return nil, err
			}
			out = append(out, nest)
		}
	}
	return out, nil
}

// annotationOf parses a function's //navpgen:loopnest line, returning
// the distribution spec it names.
func annotationOf(fn *ast.FuncDecl) (Dist, bool, error) {
	for _, c := range fn.Doc.List {
		text := strings.TrimSpace(c.Text)
		if !strings.HasPrefix(text, Annotation) {
			continue
		}
		rest := strings.TrimPrefix(text, Annotation)
		if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
			continue // e.g. //navpgen:loopnestX — not ours
		}
		var distSpec string
		for _, field := range strings.Fields(rest) {
			k, v, ok := strings.Cut(field, "=")
			if !ok {
				return Dist{}, false, fmt.Errorf("gen: %s: malformed annotation field %q (want key=value)", fn.Name.Name, field)
			}
			switch k {
			case "dist":
				distSpec = v
			default:
				return Dist{}, false, fmt.Errorf("gen: %s: unknown annotation key %q", fn.Name.Name, k)
			}
		}
		if distSpec == "" {
			return Dist{}, false, fmt.Errorf("gen: %s: annotation is missing dist=", fn.Name.Name)
		}
		d, err := ParseDist(distSpec)
		if err != nil {
			return Dist{}, false, fmt.Errorf("gen: %s: %w", fn.Name.Name, err)
		}
		return d, true, nil
	}
	return Dist{}, false, nil
}

// ExtractNest extracts the named function as a loop nest distributed
// per dist. The function must be a rectangular counted-loop nest over
// int/[]T/[][]T parameters whose innermost body is straight-line
// arithmetic assignments — anything else is refused with a specific
// error, because a mechanical transformer must never guess.
func ExtractNest(pkg *load.Package, fs *facts.Set, funcName string, dist Dist) (*Nest, error) {
	decl := findFunc(pkg, funcName)
	if decl == nil {
		return nil, fmt.Errorf("gen: function %s not found in %s", funcName, pkg.Path)
	}
	bad := func(format string, args ...any) error {
		return fmt.Errorf("gen: %s: %s", funcName, fmt.Sprintf(format, args...))
	}

	// The facts gate: the nest is the paper's "ordinary sequential
	// program", so its summary must show pure local compute.
	if sum := nestSummary(pkg, fs, decl); sum != nil {
		switch {
		case sum.Hops:
			return nil, bad("already hops: navpgen transforms sequential nests, not NavP programs")
		case sum.MayBlock:
			return nil, bad("may block (channel, I/O, or sync call): a nest body must be pure compute")
		case sum.Externalizes:
			return nil, bad("externalizes effects: a nest body must be pure compute")
		}
	}

	n := &Nest{Name: funcName, Dist: dist, pkg: pkg, decl: decl, BodyVars: map[string]bool{}}

	// Parameters.
	if decl.Type.Results != nil && len(decl.Type.Results.List) > 0 {
		return nil, bad("returns values; a nest mutates its array parameters instead")
	}
	if decl.Recv != nil {
		return nil, bad("is a method; nests must be package functions")
	}
	for _, field := range decl.Type.Params.List {
		dims, elem, err := paramType(pkg.Fset, field.Type)
		if err != nil {
			return nil, bad("%v", err)
		}
		for _, name := range field.Names {
			p := Param{Name: name.Name, Dims: dims, Elem: elem}
			n.Params = append(n.Params, p)
			if dims == 0 {
				n.SizeParams = append(n.SizeParams, p.Name)
			} else {
				if n.Elem == "" {
					n.Elem = elem
				} else if n.Elem != elem {
					return nil, bad("mixes element types %s and %s; a nest computes over one", n.Elem, elem)
				}
			}
		}
	}
	if n.Elem == "" {
		return nil, bad("has no array parameters to distribute")
	}

	// The loop chain.
	body := decl.Body.List
	for {
		if len(body) == 1 {
			if forStmt, ok := body[0].(*ast.ForStmt); ok {
				loop, err := loopFrom(pkg.Fset, forStmt)
				if err != nil {
					return nil, bad("%v", err)
				}
				n.Loops = append(n.Loops, loop)
				if loop.Var == dist.Dim {
					n.DistIdx = len(n.Loops) - 1
					n.distFor = forStmt
					n.distBody = forStmt.Body.List
				}
				body = forStmt.Body.List
				continue
			}
		}
		break
	}
	if len(n.Loops) < 2 {
		return nil, bad("has %d counted loop(s); a nest needs an outer (pipeline) loop and a distributed loop", len(n.Loops))
	}
	if n.distFor == nil {
		return nil, bad("has no loop over distributed dimension %q (loops: %s)", dist.Dim, loopVars(n.Loops))
	}
	if n.DistIdx != 1 {
		return nil, bad("distributes loop %q at depth %d; navpgen supports exactly one outer (pipeline) loop above the distributed one", dist.Dim, n.DistIdx)
	}

	// Emission hygiene: generated code introduces its own identifiers
	// around the nest's; a colliding nest name would shadow them.
	for _, p := range n.Params {
		if reservedIdents[p.Name] {
			return nil, bad("parameter %q collides with an identifier navpgen emits; rename it", p.Name)
		}
	}
	for _, l := range n.Loops {
		if reservedIdents[l.Var] {
			return nil, bad("loop variable %q collides with an identifier navpgen emits; rename it", l.Var)
		}
	}

	// Loop hygiene: distinct variables, bounds over size params only.
	seen := map[string]bool{}
	for _, l := range n.Loops {
		if seen[l.Var] {
			return nil, bad("reuses loop variable %q", l.Var)
		}
		seen[l.Var] = true
		for _, b := range []ast.Expr{l.Lo, l.Hi} {
			if err := checkBoundExpr(pkg.Fset, b, n); err != nil {
				return nil, bad("loop %q bound: %v", l.Var, err)
			}
		}
	}

	// The innermost body: straight-line assignments.
	if len(body) == 0 {
		return nil, bad("innermost loop body is empty")
	}
	refSeen := map[string]bool{}
	for _, stmt := range body {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok {
			return nil, bad("unsupported statement %q in innermost body (only = and += assignments)", stmtSrc(pkg.Fset, stmt))
		}
		if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return nil, bad("multi-assignment %q is unsupported", stmtSrc(pkg.Fset, stmt))
		}
		var commutative bool
		switch as.Tok {
		case token.ASSIGN:
		case token.ADD_ASSIGN:
			commutative = true
		default:
			return nil, bad("assignment operator %q is unsupported (only = and +=)", as.Tok)
		}
		wref, err := n.refFrom(as.Lhs[0], true, commutative)
		if err != nil {
			return nil, bad("%v", err)
		}
		n.addRef(refSeen, wref)
		ops, rrefs, err := n.scanValueExpr(as.Rhs[0])
		if err != nil {
			return nil, bad("%v", err)
		}
		if commutative {
			ops++ // the += fold itself
		}
		n.OpCount += ops
		for _, r := range rrefs {
			n.addRef(refSeen, r)
		}
	}

	// Which loop variables does the generated Compute body reference?
	for _, stmt := range n.distBody {
		ast.Inspect(stmt, func(node ast.Node) bool {
			if id, ok := node.(*ast.Ident); ok {
				if _, isLoop := n.loopByVar(id.Name); isLoop {
					n.BodyVars[id.Name] = true
				}
			}
			return true
		})
	}

	if err := n.checkDistribution(); err != nil {
		return nil, bad("%v", err)
	}
	return n, nil
}

// nestSummary fetches the facts summary of the nest function, if the
// fact layer produced one.
func nestSummary(pkg *load.Package, fs *facts.Set, decl *ast.FuncDecl) *facts.Summary {
	if fs == nil {
		return nil
	}
	if fn, ok := pkg.Info.Defs[decl.Name].(*types.Func); ok {
		return fs.FuncSummary(fn)
	}
	return nil
}

// reservedIdents are the identifiers generated code introduces around
// the nest's own; nests may not use them for parameters or loop
// variables.
var reservedIdents = map[string]bool{
	"sys": true, "pes": true, "ag": true, "st": true, "carry": true,
	"lo": true, "hi": true, "p": true, "q": true,
	"rot": true, "span": true, "items": true, "plan": true,
	"v": true, "it": true, "err": true, "sizes": true, "seed": true,
}

// findFunc locates a top-level function declaration by name.
func findFunc(pkg *load.Package, name string) *ast.FuncDecl {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name == name && fn.Recv == nil {
				return fn
			}
		}
	}
	return nil
}

// loopVars lists loop variables for diagnostics.
func loopVars(loops []Loop) string {
	vars := make([]string, len(loops))
	for i, l := range loops {
		vars[i] = l.Var
	}
	return strings.Join(vars, ", ")
}

// loopFrom validates the canonical counted-loop form
// `for v := lo; v < hi; v++`.
func loopFrom(fset *token.FileSet, f *ast.ForStmt) (Loop, error) {
	src := func() string {
		return stmtSrc(fset, &ast.ForStmt{For: f.For, Init: f.Init, Cond: f.Cond, Post: f.Post, Body: &ast.BlockStmt{}})
	}
	init, ok := f.Init.(*ast.AssignStmt)
	if !ok || init.Tok != token.DEFINE || len(init.Lhs) != 1 || len(init.Rhs) != 1 {
		return Loop{}, fmt.Errorf("loop %q: want `for v := lo; v < hi; v++`", src())
	}
	v, ok := init.Lhs[0].(*ast.Ident)
	if !ok {
		return Loop{}, fmt.Errorf("loop %q: index must be a plain identifier", src())
	}
	cond, ok := f.Cond.(*ast.BinaryExpr)
	if !ok || cond.Op != token.LSS {
		return Loop{}, fmt.Errorf("loop %q: condition must be `%s < hi`", src(), v.Name)
	}
	condVar, ok := cond.X.(*ast.Ident)
	if !ok || condVar.Name != v.Name {
		return Loop{}, fmt.Errorf("loop %q: condition must test the loop variable %q", src(), v.Name)
	}
	post, ok := f.Post.(*ast.IncDecStmt)
	if !ok || post.Tok != token.INC {
		return Loop{}, fmt.Errorf("loop %q: post statement must be `%s++`", src(), v.Name)
	}
	postVar, ok := post.X.(*ast.Ident)
	if !ok || postVar.Name != v.Name {
		return Loop{}, fmt.Errorf("loop %q: post statement must increment %q", src(), v.Name)
	}
	return Loop{
		Var: v.Name, Lo: init.Rhs[0], Hi: cond.Y,
		LoSrc: exprSrc(fset, init.Rhs[0]), HiSrc: exprSrc(fset, cond.Y),
	}, nil
}

// checkBoundExpr enforces that a loop bound mentions only int size
// parameters and literals (rectangular iteration spaces).
func checkBoundExpr(fset *token.FileSet, e ast.Expr, n *Nest) error {
	var err error
	ast.Inspect(e, func(node ast.Node) bool {
		switch x := node.(type) {
		case nil, *ast.BinaryExpr, *ast.ParenExpr, *ast.UnaryExpr:
			return true
		case *ast.BasicLit:
			if x.Kind != token.INT {
				err = fmt.Errorf("non-integer literal %q", x.Value)
			}
			return false
		case *ast.Ident:
			if p, ok := n.paramByName(x.Name); !ok || p.Dims != 0 {
				err = fmt.Errorf("%q is not an int size parameter (bounds must be rectangular)", x.Name)
			}
			return false
		default:
			err = fmt.Errorf("unsupported expression %q", exprSrc(fset, e))
			return false
		}
	})
	return err
}

// addRef records a reference, deduplicated.
func (n *Nest) addRef(seen map[string]bool, r *Ref) {
	if r == nil || seen[r.key()] {
		return
	}
	seen[r.key()] = true
	n.Refs = append(n.Refs, *r)
}

// refFrom validates and extracts one array reference expression.
func (n *Nest) refFrom(e ast.Expr, write, commutative bool) (*Ref, error) {
	var idx []ast.Expr
	cur := e
	for {
		ie, ok := cur.(*ast.IndexExpr)
		if !ok {
			break
		}
		idx = append([]ast.Expr{ie.Index}, idx...)
		cur = ie.X
	}
	root, ok := cur.(*ast.Ident)
	if !ok {
		return nil, fmt.Errorf("reference %q is not rooted at a parameter", exprSrc(n.pkg.Fset, e))
	}
	p, ok := n.paramByName(root.Name)
	if !ok || p.Dims == 0 {
		return nil, fmt.Errorf("reference %q: %q is not an array parameter", exprSrc(n.pkg.Fset, e), root.Name)
	}
	if len(idx) != p.Dims {
		return nil, fmt.Errorf("reference %q indexes %q with %d subscript(s); it has rank %d",
			exprSrc(n.pkg.Fset, e), root.Name, len(idx), p.Dims)
	}
	r := &Ref{Array: root.Name, Index: idx, Write: write, Commutative: commutative}
	for _, ie := range idx {
		if err := n.checkIndexExpr(ie); err != nil {
			return nil, fmt.Errorf("reference %q: %v", exprSrc(n.pkg.Fset, e), err)
		}
		r.IndexSrc = append(r.IndexSrc, exprSrc(n.pkg.Fset, ie))
	}
	return r, nil
}

// checkIndexExpr enforces that a subscript is integer arithmetic over
// loop variables, size parameters, and literals.
func (n *Nest) checkIndexExpr(e ast.Expr) error {
	var err error
	ast.Inspect(e, func(node ast.Node) bool {
		switch x := node.(type) {
		case nil, *ast.ParenExpr:
			return true
		case *ast.BinaryExpr:
			switch x.Op {
			case token.ADD, token.SUB, token.MUL, token.QUO, token.REM:
				return true
			}
			err = fmt.Errorf("subscript operator %q is unsupported", x.Op)
			return false
		case *ast.UnaryExpr:
			if x.Op == token.SUB {
				return true
			}
			err = fmt.Errorf("subscript operator %q is unsupported", x.Op)
			return false
		case *ast.BasicLit:
			if x.Kind != token.INT {
				err = fmt.Errorf("subscript literal %q is not an integer", x.Value)
			}
			return false
		case *ast.Ident:
			if _, isLoop := n.loopByVar(x.Name); isLoop {
				return false
			}
			if p, ok := n.paramByName(x.Name); ok && p.Dims == 0 {
				return false
			}
			err = fmt.Errorf("subscript mentions %q, which is neither a loop variable nor an int parameter", x.Name)
			return false
		default:
			err = fmt.Errorf("unsupported subscript expression %q", exprSrc(n.pkg.Fset, e))
			return false
		}
	})
	return err
}

// scanValueExpr validates a right-hand side, counting arithmetic
// operations and collecting the array references it reads.
func (n *Nest) scanValueExpr(e ast.Expr) (ops int, refs []*Ref, err error) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return n.scanValueExpr(x.X)
	case *ast.BasicLit:
		if x.Kind != token.INT && x.Kind != token.FLOAT {
			return 0, nil, fmt.Errorf("literal %q is unsupported in a nest body", x.Value)
		}
		return 0, nil, nil
	case *ast.Ident:
		if _, isLoop := n.loopByVar(x.Name); isLoop {
			return 0, nil, nil
		}
		if p, ok := n.paramByName(x.Name); ok && p.Dims == 0 {
			return 0, nil, nil
		}
		return 0, nil, fmt.Errorf("value %q is neither a loop variable, an int parameter, nor an array reference", x.Name)
	case *ast.IndexExpr:
		r, err := n.refFrom(x, false, false)
		if err != nil {
			return 0, nil, err
		}
		return 0, []*Ref{r}, nil
	case *ast.BinaryExpr:
		switch x.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO:
		default:
			return 0, nil, fmt.Errorf("operator %q is unsupported in a nest body", x.Op)
		}
		lops, lrefs, err := n.scanValueExpr(x.X)
		if err != nil {
			return 0, nil, err
		}
		rops, rrefs, err := n.scanValueExpr(x.Y)
		if err != nil {
			return 0, nil, err
		}
		return lops + rops + 1, append(lrefs, rrefs...), nil
	case *ast.UnaryExpr:
		if x.Op != token.SUB {
			return 0, nil, fmt.Errorf("operator %q is unsupported in a nest body", x.Op)
		}
		return n.scanValueExpr(x.X)
	case *ast.CallExpr:
		// Only conversions to the nest's element type: int64(i + j).
		fn, ok := x.Fun.(*ast.Ident)
		if !ok || (fn.Name != "int64" && fn.Name != "float64") || len(x.Args) != 1 {
			return 0, nil, fmt.Errorf("call %q is unsupported (only %s(...) conversions)", exprSrc(n.pkg.Fset, e), n.Elem)
		}
		if err := n.checkIndexExpr(x.Args[0]); err != nil {
			return 0, nil, fmt.Errorf("conversion %q: %v", exprSrc(n.pkg.Fset, e), err)
		}
		ops := countBinaryOps(x.Args[0])
		return ops, nil, nil
	default:
		return 0, nil, fmt.Errorf("unsupported expression %q in a nest body", exprSrc(n.pkg.Fset, e))
	}
}

// countBinaryOps counts arithmetic nodes inside an expression.
func countBinaryOps(e ast.Expr) int {
	count := 0
	ast.Inspect(e, func(node ast.Node) bool {
		if _, ok := node.(*ast.BinaryExpr); ok {
			count++
		}
		return true
	})
	return count
}

// paramType classifies a parameter type as int, []T, or [][]T.
func paramType(fset *token.FileSet, t ast.Expr) (dims int, elem string, err error) {
	cur := t
	for {
		arr, ok := cur.(*ast.ArrayType)
		if !ok {
			break
		}
		if arr.Len != nil {
			return 0, "", fmt.Errorf("fixed-size array parameter %q is unsupported (use slices)", exprSrc(fset, t))
		}
		dims++
		cur = arr.Elt
	}
	id, ok := cur.(*ast.Ident)
	if !ok {
		return 0, "", fmt.Errorf("parameter type %q is unsupported", exprSrc(fset, t))
	}
	switch {
	case dims == 0 && id.Name == "int":
		return 0, "", nil
	case dims >= 1 && dims <= 2 && (id.Name == "float64" || id.Name == "int64"):
		return dims, id.Name, nil
	default:
		return 0, "", fmt.Errorf("parameter type %q is unsupported (int, []float64, [][]float64, []int64, [][]int64)", exprSrc(fset, t))
	}
}
