// Package lockdiscipline guards the ingest pipeline's latency contract:
// the store sequencing lock and the WAL/encoder mutexes are held only
// for buffer framing and queue handoff — never across disk I/O, network
// calls, sleeps, or seal-time clustering. PR 5/6 review-hardening fixed
// this bug class by hand twice; this analyzer flags it at vet time.
//
// Lock state is tracked per function by a small branch-sensitive walk:
//   - x.Lock()/x.RLock() on a sync.Mutex/RWMutex marks x held,
//     x.Unlock()/x.RUnlock() releases it; defer x.Unlock() keeps it held
//     to the end of the function (the common guard idiom);
//   - an if/else branch that ends in return or panic does not leak its
//     lock transitions into the fall-through path, so the
//     "Unlock-and-return early exit" idiom stays precise;
//   - //logr:holds(x) on a function's doc marks x held on entry
//     (the *Locked helper convention);
//   - //logr:blocking marks a same-package function as blocking.
//
// While any lock is held, a direct call to a blocking callee — file
// Sync/Write/Read, file-system mutation, net dials and conn I/O,
// time.Sleep, WAL commit/sync, or the seal-time clustering and
// compression entry points — is a finding. Only direct calls are
// checked: lock-managing helpers release around their blocking regions,
// and transitive propagation would drown those in false positives.
package lockdiscipline

import (
	"go/ast"
	"go/types"
	"strings"

	"logr/internal/analysis"
)

// Analyzer is the lock-discipline check.
var Analyzer = &analysis.Analyzer{
	Name: "lockdiscipline",
	Doc:  "flag blocking calls (disk, net, sleep, seal-time clustering) made while holding a mutex",
	Run:  run,
}

// blockingFuncs are callee keys (analysis.FuncKey form) that block or
// burn seal-time compute. Kept explicit: auditability beats inference.
var blockingFuncs = map[string]string{
	"(*os.File).Sync":        "fsync",
	"(*os.File).Write":       "file write",
	"(*os.File).WriteString": "file write",
	"(*os.File).WriteAt":     "file write",
	"(*os.File).Read":        "file read",
	"(*os.File).ReadAt":      "file read",
	"(*os.File).Truncate":    "file truncate",
	"os.OpenFile":            "file open",
	"os.Open":                "file open",
	"os.Create":              "file create",
	"os.Remove":              "file remove",
	"os.RemoveAll":           "file remove",
	"os.Rename":              "file rename",
	"os.Mkdir":               "mkdir",
	"os.MkdirAll":            "mkdir",
	"os.ReadDir":             "directory read",
	"os.ReadFile":            "file read",
	"os.WriteFile":           "file write",
	"os.Stat":                "stat",
	"time.Sleep":             "sleep",
	"net.Dial":               "net dial",
	"net.DialTimeout":        "net dial",
	"(*net/http.Client).Do":  "http round-trip",
	"net/http.Get":           "http round-trip",
	"net/http.Post":          "http round-trip",

	"(*logr/internal/wal.Log).Commit": "WAL group-commit wait",
	"(*logr/internal/wal.Log).Sync":   "WAL fsync",
	"(*logr/internal/wal.Log).Close":  "WAL close (drains + fsyncs)",
	"(*logr/internal/wal.Log).Rotate": "WAL rotation (copies the live tail)",
	"logr/internal/wal.Create":        "WAL create",

	// the vfs seam: everything os does, the interface does too — code that
	// switched to vfs.FS must not silently lose the IO-under-lock audit
	"(logr/internal/vfs.FS).OpenFile":   "file open",
	"(logr/internal/vfs.FS).Rename":     "file rename",
	"(logr/internal/vfs.FS).Remove":     "file remove",
	"(logr/internal/vfs.FS).ReadDir":    "directory read",
	"(logr/internal/vfs.FS).MkdirAll":   "mkdir",
	"(logr/internal/vfs.FS).Stat":       "stat",
	"(logr/internal/vfs.FS).Lock":       "file lock acquisition",
	"(logr/internal/vfs.File).Sync":     "fsync",
	"(logr/internal/vfs.File).Truncate": "file truncate",
	"logr/internal/vfs.ReadFile":        "file read",
	"logr/internal/vfs.WriteFileAtomic": "atomic file write (write+fsync+rename)",
	"logr/internal/vfs.RemoveTempFiles": "directory sweep",

	// the gateway fan-out surface: every client method is at least one
	// HTTP round trip to a shard (two when hedged). The gateway's
	// shard-health mutex is documented as "never a network call under
	// the lock" — these keys are what enforce it.
	"(*logr/client.Client).Ingest":         "shard HTTP round-trip",
	"(*logr/client.Client).IngestReader":   "shard HTTP round-trip",
	"(*logr/client.Client).Estimate":       "shard HTTP round-trip",
	"(*logr/client.Client).Count":          "shard HTTP round-trip",
	"(*logr/client.Client).Health":         "shard HTTP round-trip",
	"(*logr/client.Client).Stats":          "shard HTTP round-trip",
	"(*logr/client.Client).Seal":           "shard HTTP round-trip",
	"(*logr/client.Client).Segments":       "shard HTTP round-trip",
	"(*logr/client.Client).Drift":          "shard HTTP round-trip",
	"(*logr/client.Client).Compact":        "shard HTTP round-trip",
	"(*logr/client.Client).DropBefore":     "shard HTTP round-trip",
	"(*logr/client.Client).Summary":        "shard HTTP round-trip",
	"(*logr/client.Client).SummaryRange":   "shard HTTP round-trip",
	"(*logr/client.Client).SummaryRaw":     "shard HTTP round-trip",
	"(*logr/client.Client).SummaryRawMeta": "shard HTTP round-trip",

	// gateway fan-out entry points: one call is N shard round trips
	"(*logr/internal/gateway.Gateway).Ingest":        "cluster ingest fan-out (N shard round trips)",
	"(*logr/internal/gateway.Gateway).MergedSummary": "cluster summary fan-out (N shard round trips + merge)",

	// the telemetry scrape path: rendering walks every family and series
	// under registry locks and writes to the scrape connection. The obs
	// *record* surface (Counter.Add, Gauge.Set, Histogram.Record, ...) is
	// deliberately absent from this list — those are atomic bumps and
	// striped short critical sections, designed to be safe under
	// application locks; only the scrape path blocks.
	"(*logr/internal/obs.Registry).WritePrometheus": "metrics scrape render (walks all series, writes to the connection)",

	"logr/internal/cluster.KMeans":               "seal-time clustering",
	"logr/internal/cluster.KMeansBinary":         "seal-time clustering",
	"logr/internal/cluster.DistanceMatrix":       "seal-time clustering",
	"logr/internal/cluster.Hierarchical":         "seal-time clustering",
	"logr/internal/cluster.HierarchicalP":        "seal-time clustering",
	"logr/internal/cluster.HierarchicalBinaryP":  "seal-time clustering",
	"logr/internal/cluster.DistanceMatrixBinary": "seal-time clustering",
	"logr/internal/cluster.Agglomerate":          "seal-time clustering",
	"logr/internal/mining.Spectral":              "spectral clustering (O(n³) eigensolve)",
	"logr/internal/mining.SpectralBinary":        "spectral clustering (O(n³) eigensolve)",
	"logr/internal/core.Compress":                "summary compression",
	"logr/internal/core.Recompress":              "summary compression",
	"logr/internal/core.Consolidate":             "summary compression",
}

func run(pass *analysis.Pass) error {
	// collect same-package //logr:blocking functions first
	blockingLocal := map[*types.Func]string{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !analysis.HasDirective(fn, "blocking") {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
				blockingLocal[obj] = "annotated //logr:blocking"
			}
		}
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			c := &checker{pass: pass, blockingLocal: blockingLocal}
			held := lockSet{}
			for _, lk := range analysis.DirectiveArg(fn, "holds") {
				held[lk] = true
			}
			c.block(fn.Body, held)
		}
	}
	return nil
}

// lockSet maps rendered lock expressions ("l.mu") to held.
type lockSet map[string]bool

func (s lockSet) clone() lockSet {
	out := make(lockSet, len(s))
	for k, v := range s {
		if v {
			out[k] = v
		}
	}
	return out
}

func (s lockSet) any() (string, bool) {
	for k, v := range s {
		if v {
			return k, true
		}
	}
	return "", false
}

// merge keeps a lock held if either rejoining branch holds it
// (may-be-held is what matters for flagging).
func (s lockSet) merge(o lockSet) {
	for k, v := range o {
		if v {
			s[k] = true
		}
	}
}

type checker struct {
	pass          *analysis.Pass
	blockingLocal map[*types.Func]string
}

// block walks stmts in order, mutating held, and reports blocking calls
// made while any lock is held.
func (c *checker) block(blk *ast.BlockStmt, held lockSet) {
	for _, s := range blk.List {
		c.stmt(s, held)
	}
}

func (c *checker) stmt(s ast.Stmt, held lockSet) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		c.expr(s.X, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			c.expr(e, held)
		}
	case *ast.DeferStmt:
		// deferred unlocks keep the lock held through the body; any other
		// deferred call runs at return time — check it against entry state
		if lk, op := lockOp(c.pass.TypesInfo, s.Call); lk != "" && (op == "Unlock" || op == "RUnlock") {
			return
		}
		c.checkCall(s.Call, held)
	case *ast.GoStmt:
		// spawned work runs without our locks; don't check the call
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.expr(e, held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			c.stmt(s.Init, held)
		}
		c.expr(s.Cond, held)
		bodyHeld := held.clone()
		c.block(s.Body, bodyHeld)
		var elseHeld lockSet
		if s.Else != nil {
			elseHeld = held.clone()
			c.stmt(s.Else, elseHeld)
		}
		// branches that terminate never rejoin: drop their transitions
		switch {
		case terminates(s.Body) && (s.Else == nil || terminatesStmt(s.Else)):
			// fall-through state unchanged (or unreachable; keep held)
		case terminates(s.Body):
			if elseHeld != nil {
				replace(held, elseHeld)
			}
		case s.Else != nil && terminatesStmt(s.Else):
			replace(held, bodyHeld)
		default:
			replace(held, bodyHeld)
			if elseHeld != nil {
				held.merge(elseHeld)
			}
		}
	case *ast.BlockStmt:
		c.block(s, held)
	case *ast.ForStmt:
		if s.Init != nil {
			c.stmt(s.Init, held)
		}
		if s.Cond != nil {
			c.expr(s.Cond, held)
		}
		body := held.clone()
		c.block(s.Body, body)
		if s.Post != nil {
			c.stmt(s.Post, body)
		}
		replace(held, body)
	case *ast.RangeStmt:
		c.expr(s.X, held)
		body := held.clone()
		c.block(s.Body, body)
		replace(held, body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.stmt(s.Init, held)
		}
		if s.Tag != nil {
			c.expr(s.Tag, held)
		}
		c.clauses(s.Body, held)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			c.stmt(s.Init, held)
		}
		c.stmt(s.Assign, held)
		c.clauses(s.Body, held)
	case *ast.SelectStmt:
		c.clauses(s.Body, held)
	case *ast.SendStmt:
		c.expr(s.Value, held)
	case *ast.LabeledStmt:
		c.stmt(s.Stmt, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.expr(v, held)
					}
				}
			}
		}
	}
}

// clauses runs each case body from a clone of the incoming state and
// merges the survivors.
func (c *checker) clauses(body *ast.BlockStmt, held lockSet) {
	out := held.clone()
	for _, cl := range body.List {
		var stmts []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			stmts = cl.Body
		case *ast.CommClause:
			if cl.Comm != nil {
				stmts = append([]ast.Stmt{cl.Comm}, cl.Body...)
			} else {
				stmts = cl.Body
			}
		}
		branch := held.clone()
		for _, s := range stmts {
			c.stmt(s, branch)
		}
		if !terminatesList(stmts) {
			out.merge(branch)
		}
	}
	replace(held, out)
}

// expr checks calls appearing inside an expression, applying lock
// transitions for direct Lock/Unlock calls.
func (c *checker) expr(e ast.Expr, held lockSet) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // closure body runs later, without our lock view
		case *ast.CallExpr:
			if lk, op := lockOp(c.pass.TypesInfo, n); lk != "" {
				switch op {
				case "Lock", "RLock":
					held[lk] = true
				case "Unlock", "RUnlock":
					delete(held, lk)
				}
				return false
			}
			c.checkCall(n, held)
		}
		return true
	})
}

func (c *checker) checkCall(call *ast.CallExpr, held lockSet) {
	lk, anyHeld := held.any()
	if !anyHeld {
		return
	}
	fn := analysis.CalleeFunc(c.pass.TypesInfo, call)
	if fn == nil {
		return
	}
	if why, ok := blockingFuncs[analysis.FuncKey(fn)]; ok {
		c.pass.Reportf(call.Pos(), "%s (%s) while holding %s; release the lock or hand off to a worker", analysis.ExprString(call.Fun), why, lk)
		return
	}
	if why, ok := c.blockingLocal[fn]; ok {
		c.pass.Reportf(call.Pos(), "call to %s (%s) while holding %s", fn.Name(), why, lk)
	}
}

// lockOp recognizes x.Lock/Unlock/RLock/RUnlock on sync mutexes and
// returns the rendered lock expression and the operation.
func lockOp(info *types.Info, call *ast.CallExpr) (lock, op string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	name := sel.Sel.Name
	switch name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", ""
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return "", ""
	}
	if !isMutexType(tv.Type) {
		return "", ""
	}
	return analysis.ExprString(sel.X), name
}

func isMutexType(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	if n.Obj().Pkg() == nil {
		return false
	}
	if n.Obj().Pkg().Path() == "sync" && (n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex") {
		return true
	}
	// named wrappers and embedded mutexes: fall back to the method set
	return strings.HasSuffix(n.Obj().Name(), "Mutex")
}

func terminates(blk *ast.BlockStmt) bool {
	return terminatesList(blk.List)
}

func terminatesStmt(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return terminates(s)
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.IfStmt:
		return terminates(s.Body) && s.Else != nil && terminatesStmt(s.Else)
	}
	return false
}

func terminatesList(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	return terminatesStmt(stmts[len(stmts)-1])
}

func replace(dst, src lockSet) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		if v {
			dst[k] = v
		}
	}
}
