package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockBlock forbids blocking operations inside critical sections. The
// serving stack's SLA is one queue-wait away from a miss; a channel
// operation, socket write, accelerator run, or call into another
// lock-taking method while a mutex is held turns one slow peer into a
// fleet-wide stall (or a lock-ordering deadlock).
var LockBlock = &Analyzer{
	Name:      "lockblock",
	Directive: "lockheld",
	Doc: `flags blocking operations while a mutex is held

While a sync.Mutex/RWMutex is held, the critical section must not block:
channel sends and receives, select statements without a default case,
net.Conn I/O (direct or via a same-package helper), Run or Launch on an
Accelerator or Launcher, and calls into same-package methods that
themselves take a lock are all flagged. Bounded, reviewed exceptions (a
buffered single-sender channel, a serialized connection writer) must be
annotated //edgeis:lockheld <reason>.`,
	Run: runLockBlock,
}

func runLockBlock(pass *Pass) error {
	lockTakers, netIOFuncs := indexBlockingFuncs(pass)
	w := &lockWalker{pass: pass}
	line := func(pos token.Pos) int { return pass.Fset.Position(pos).Line }
	w.hooks = lockHooks{
		onBlocking: func(pos token.Pos, what, key string, lockPos token.Pos) {
			pass.Reportf(pos,
				"%s while holding %s (locked at line %d); move it outside the critical section or annotate //edgeis:lockheld <reason>",
				what, displayKey(key), line(lockPos))
		},
		blockingCall: func(call *ast.CallExpr) (string, bool) {
			return classifyBlockingCall(pass, call, lockTakers, netIOFuncs)
		},
	}
	for _, f := range pass.Files {
		w.walkFile(f)
	}
	return nil
}

// indexBlockingFuncs precomputes, over the package's own declarations, the
// functions that take a mutex lock anywhere in their body and the functions
// that perform direct net.Conn I/O — the one level of interprocedural
// context the analyzer chases.
func indexBlockingFuncs(pass *Pass) (lockTakers, netIOFuncs map[*types.Func]bool) {
	lockTakers = map[*types.Func]bool{}
	netIOFuncs = map[*types.Func]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || d.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[d.Name].(*types.Func)
			if !ok {
				continue
			}
			ast.Inspect(d.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if op := classifyMutexOp(pass, call); op != nil {
					switch op.name {
					case "Lock", "RLock", "TryLock", "TryRLock":
						lockTakers[obj] = true
					}
					return false
				}
				if isNetConnIO(pass, call) {
					netIOFuncs[obj] = true
				}
				return true
			})
		}
	}
	return lockTakers, netIOFuncs
}

// classifyBlockingCall names the blocking hazard call represents, if any.
func classifyBlockingCall(pass *Pass, call *ast.CallExpr, lockTakers, netIOFuncs map[*types.Func]bool) (string, bool) {
	if isNetConnIO(pass, call) {
		return "net.Conn I/O", true
	}
	if name, ok := isAcceleratorRun(pass, call); ok {
		return name, true
	}
	fn := calleeFunc(pass, call)
	if fn == nil {
		return "", false
	}
	if lockTakers[fn] {
		return "call into " + fn.Name() + ", which takes a lock", true
	}
	if netIOFuncs[fn] {
		return "net.Conn I/O via " + fn.Name(), true
	}
	return "", false
}

// calleeFunc resolves the called function or method, when statically known.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// isNetConnIO reports whether call is Read/Write on a net.Conn-shaped
// receiver: the static type is net.Conn itself or implements it.
func isNetConnIO(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	// The deadline setters are included because they are net.Conn-specific
	// and mark helpers (like Server.write) that wrap their socket I/O in a
	// deadline before handing the conn to an io.Writer-typed writer.
	case "Read", "Write", "SetDeadline", "SetReadDeadline", "SetWriteDeadline":
	default:
		return false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	conn := netConnType(pass)
	if conn == nil {
		return false
	}
	t := tv.Type
	if types.Implements(t, conn) {
		return true
	}
	if p, ok := t.(*types.Pointer); ok {
		return types.Implements(p.Elem(), conn)
	}
	return types.Implements(types.NewPointer(t), conn)
}

// netConnType returns the net.Conn interface if the package (or one of its
// direct imports) brings it into the type graph, else nil.
func netConnType(pass *Pass) *types.Interface {
	for _, imp := range pass.Pkg.Imports() {
		if imp.Path() != "net" {
			continue
		}
		obj, ok := imp.Scope().Lookup("Conn").(*types.TypeName)
		if !ok {
			return nil
		}
		iface, _ := obj.Type().Underlying().(*types.Interface)
		return iface
	}
	return nil
}

// isAcceleratorRun reports whether call is Run or Launch on a receiver
// whose (possibly dereferenced) named type is called Accelerator or
// Launcher — the serving stack's inference interfaces, whose calls model
// real device latency and must never run under a scheduler lock. It
// returns the call as Type.Method.
func isAcceleratorRun(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch sel.Sel.Name {
	case "Run", "Launch":
	default:
		return "", false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok || tv.Type == nil {
		return "", false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	switch name := named.Obj().Name(); name {
	case "Accelerator", "Launcher":
		return name + "." + sel.Sel.Name, true
	}
	return "", false
}
