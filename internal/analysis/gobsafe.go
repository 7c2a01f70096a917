package analysis

import (
	"go/ast"
	"go/types"
)

// wirePath is the import path of the socket runtime; driverType is its
// one cluster driver, which declares every control operation.
const (
	wirePath   = "repro/internal/wire"
	driverType = "RemoteCluster"
)

// NewGobSafe returns the gobsafe analyzer.
//
// The wire runtime checkpoints every agent's carried state as gob bytes
// at each hop boundary (DESIGN.md §8); recovery replays the agent from
// that snapshot. encoding/gob silently drops unexported struct fields
// and fails at runtime on chan- and func-typed exported fields — either
// way, a checkpoint replay restores less state than the agent carried,
// which is a silent correctness bug in exactly the code paths fault
// injection exercises. Node variables placed by a coordinator cross a
// control frame as a gob payload and are persisted as one. gobsafe walks
// every type that flows into a wire state sink (wire.RegisterState,
// Ctx.SetState, Ctx.Inject, the cluster driver's Inject, InjectJob and
// SetVar, gob.Register, Encoder.Encode) and reports the fields gob would
// lose.
func NewGobSafe() *Analyzer {
	a := &Analyzer{
		Name: "gobsafe",
		Doc: "rejects unexported, chan-, and func-typed fields in types that " +
			"flow into gob-encoded agent state, which gob drops or refuses — " +
			"corrupting checkpoint replay",
	}
	a.Run = func(pass *Pass) {
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				arg, sink := stateSinkArg(pass, call)
				if arg == nil {
					return true
				}
				t := pass.TypeOf(arg)
				if t == nil {
					return true
				}
				root := t
				if ptr, ok := root.(*types.Pointer); ok {
					root = ptr.Elem()
				}
				w := &gobWalker{
					pass: pass, pos: call, sink: sink,
					root: types.TypeString(root, types.RelativeTo(pass.Pkg.Types)),
					seen: map[*types.Named]bool{},
				}
				w.check(t, "")
				return true
			})
		}
	}
	return a
}

// stateSinkArg returns the expression whose value becomes gob-encoded
// agent state, if call is one of the known sinks.
func stateSinkArg(pass *Pass, call *ast.CallExpr) (ast.Expr, string) {
	fn := funcFor(pass.Pkg.Info, call)
	if fn == nil {
		return nil, ""
	}
	sig, _ := fn.Type().(*types.Signature)
	// The cluster driver's methods are declared on one type; wire.Cluster
	// only embeds it, so calls through either resolve to that receiver.
	onDriver := sig != nil && sig.Recv() != nil && namedIn(sig.Recv().Type(), wirePath, driverType)
	switch {
	case isPkgFunc(fn, wirePath, "RegisterState") && len(call.Args) == 1:
		return call.Args[0], "wire.RegisterState"
	case isPkgFunc(fn, wirePath, "SetState") && len(call.Args) == 1:
		return call.Args[0], "Ctx.SetState"
	case isPkgFunc(fn, wirePath, "Inject") && sig != nil && sig.Recv() != nil:
		if namedIn(sig.Recv().Type(), wirePath, "Ctx") && len(call.Args) == 2 {
			return call.Args[1], "Ctx.Inject"
		}
		if onDriver && len(call.Args) == 3 {
			return call.Args[2], driverType + ".Inject"
		}
	// The serving path: every scheduler job's agent state and operands go
	// through these two.
	case isPkgFunc(fn, wirePath, "InjectJob") && onDriver && len(call.Args) == 4:
		return call.Args[3], driverType + ".InjectJob"
	case isPkgFunc(fn, wirePath, "SetVar") && onDriver && len(call.Args) == 3:
		return call.Args[2], driverType + ".SetVar"
	case isPkgFunc(fn, "encoding/gob", "Register") && len(call.Args) == 1:
		return call.Args[0], "gob.Register"
	case isPkgFunc(fn, "encoding/gob", "Encode") && sig != nil && sig.Recv() != nil && len(call.Args) == 1:
		return call.Args[0], "gob.Encoder.Encode"
	}
	return nil, ""
}

// gobWalker recursively checks a type for fields gob would lose.
type gobWalker struct {
	pass *Pass
	pos  ast.Node
	sink string
	root string // display name of the state's root type
	seen map[*types.Named]bool
}

func (w *gobWalker) check(t types.Type, path string) {
	switch tt := t.(type) {
	case *types.Pointer:
		w.check(tt.Elem(), path)
	case *types.Slice:
		w.check(tt.Elem(), path+"[]")
	case *types.Array:
		w.check(tt.Elem(), path+"[]")
	case *types.Map:
		w.check(tt.Key(), path+"[key]")
		w.check(tt.Elem(), path+"[]")
	case *types.Named:
		if w.seen[tt] {
			return
		}
		w.seen[tt] = true
		if selfEncoding(tt) {
			return // the type serializes itself; gob's field rules don't apply
		}
		if st, ok := tt.Underlying().(*types.Struct); ok {
			w.checkStruct(st, path)
			return
		}
		w.check(tt.Underlying(), path)
	case *types.Struct:
		w.checkStruct(tt, path)
	case *types.Chan, *types.Signature:
		w.reportLossy(t, path, "gob cannot encode it")
	}
}

func (w *gobWalker) checkStruct(st *types.Struct, path string) {
	typeName := w.root
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		fpath := f.Name()
		if path != "" {
			fpath = path + "." + f.Name()
		}
		if !f.Exported() {
			w.pass.Reportf(w.pos.Pos(),
				"state passed to %s: field %s of %s is unexported; encoding/gob silently "+
					"drops it, so a checkpoint replay would restore incomplete agent state "+
					"(export it, or move it out of the carried state)",
				w.sink, fpath, typeName)
			continue
		}
		switch f.Type().Underlying().(type) {
		case *types.Chan, *types.Signature:
			w.pass.Reportf(w.pos.Pos(),
				"state passed to %s: field %s of %s has type %s, which gob cannot encode; "+
					"the first checkpoint at a hop boundary would fail at runtime",
				w.sink, fpath, typeName, types.TypeString(f.Type(), types.RelativeTo(w.pass.Pkg.Types)))
		default:
			w.check(f.Type(), fpath)
		}
	}
}

func (w *gobWalker) reportLossy(t types.Type, path, why string) {
	at := path
	if at == "" {
		at = "value"
	}
	w.pass.Reportf(w.pos.Pos(), "state passed to %s: %s has type %s but %s",
		w.sink, at, types.TypeString(t, types.RelativeTo(w.pass.Pkg.Types)), why)
}

// selfEncoding reports whether the named type (or its pointer) provides
// its own gob/binary encoding, exempting it from field-level rules
// (e.g. time.Time).
func selfEncoding(named *types.Named) bool {
	for _, name := range []string{"GobEncode", "MarshalBinary"} {
		if hasMethod(named, name) {
			return true
		}
	}
	return false
}

func hasMethod(named *types.Named, name string) bool {
	for _, t := range []types.Type{named, types.NewPointer(named)} {
		ms := types.NewMethodSet(t)
		for i := 0; i < ms.Len(); i++ {
			if f, ok := ms.At(i).Obj().(*types.Func); ok && f.Name() == name {
				return true
			}
		}
	}
	return false
}
