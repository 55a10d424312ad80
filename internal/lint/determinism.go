package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// digestScope is the set of digest-bearing packages: anything whose bytes
// can end up under an FNV digest, a checkpoint line, a trace file, or a
// cached result document. Wall-clock reads, the global rand source, racy
// selects, and map-ordered writes inside these packages can silently break
// the "shard union == unsharded run, bit for bit" contract.
var digestScope = []string{
	"internal/accel",
	"internal/backend",
	"internal/canon",
	"internal/baseline",
	"internal/dse",
	"internal/hw",
	"internal/serve",
	"internal/tracefile",
	"internal/workload",
}

// selectScope narrows the multi-way-select rule to the pure evaluation and
// encoding packages. internal/serve is daemon machinery — its selects
// arbitrate contexts and queues, where nondeterministic choice is the
// point, not a bug.
var selectScope = []string{
	"internal/accel",
	"internal/backend",
	"internal/canon",
	"internal/baseline",
	"internal/dse",
	"internal/hw",
	"internal/tracefile",
	"internal/workload",
}

// Determinism forbids the constructs that most often smuggle
// nondeterminism into digest-bearing code: time.Now/Since/Until, the
// auto-seeded math/rand global source, multi-way selects, and range-over-
// map iterations that write bytes or collect values in map order.
var Determinism = &Analyzer{
	Name:  "determinism",
	Doc:   "forbid wall-clock, unseeded rand, racy selects, and map-ordered output in digest-bearing packages",
	Scope: digestScope,
	Run:   runDeterminism,
}

// seededRandCtors are the math/rand entry points that take an explicit
// source or seed and therefore stay reproducible.
var seededRandCtors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(p *Pass) {
	p.walkFuncs(func(fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				for _, name := range []string{"Now", "Since", "Until"} {
					if p.pkgFunc(n, "time", name) {
						p.Reportf(n.Pos(), "wall-clock time.%s in a digest-bearing package; inject the timestamp or keep timing out of deterministic paths", name)
					}
				}
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok &&
					(p.isPkgName(sel.X, "math/rand") || p.isPkgName(sel.X, "math/rand/v2")) &&
					!seededRandCtors[sel.Sel.Name] {
					p.Reportf(n.Pos(), "rand.%s draws from the auto-seeded global source; use rand.New(rand.NewSource(seed)) so runs replay", sel.Sel.Name)
				}
			case *ast.SelectStmt:
				if !inScope(p.RelPath, selectScope) {
					return true
				}
				comms := 0
				for _, c := range n.Body.List {
					if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
						comms++
					}
				}
				if comms >= 2 {
					p.Reportf(n.Pos(), "select over %d channels picks nondeterministically when several are ready; restructure for a deterministic service order", comms)
				}
			case *ast.RangeStmt:
				p.checkMapRange(fd, n)
			}
			return true
		})
	})
}

// checkMapRange flags range-over-map loops whose bodies emit bytes (an
// io.Writer method, fmt.Fprint*, io.WriteString, binary.Write, an Encode
// call — all of which feed writers or hashes) or append the map's values to
// a slice, both of which bake random map order into output. The sorted-keys
// idiom passes: collecting only keys and sorting them is exactly the fix,
// and value appends followed by a sort of the destination slice are
// order-washed too.
func (p *Pass) checkMapRange(fd *ast.FuncDecl, rs *ast.RangeStmt) {
	t := p.exprType(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	valueObj := p.identObj(rs.Value)
	mapText := types.ExprString(rs.X)

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
			if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin && len(call.Args) >= 2 {
				p.checkMapOrderAppend(fd, rs, call, valueObj, mapText)
			}
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch {
		case p.isPkgName(sel.X, "fmt") && strings.HasPrefix(sel.Sel.Name, "Fprint"):
			p.Reportf(call.Pos(), "fmt.%s inside range over map %s emits bytes in random map order; sort the keys first", sel.Sel.Name, mapText)
		case p.pkgFunc(call, "io", "WriteString"):
			p.Reportf(call.Pos(), "io.WriteString inside range over map %s emits bytes in random map order; sort the keys first", mapText)
		case p.pkgFunc(call, "encoding/binary", "Write"):
			p.Reportf(call.Pos(), "binary.Write inside range over map %s feeds bytes in random map order; sort the keys first", mapText)
		case strings.HasPrefix(sel.Sel.Name, "Write") || sel.Sel.Name == "Encode":
			if p.Mod.implementsWriter(p.exprType(sel.X)) || sel.Sel.Name == "Encode" {
				p.Reportf(call.Pos(), "%s.%s inside range over map %s writes in random map order; sort the keys first", types.ExprString(sel.X), sel.Sel.Name, mapText)
			}
		}
		return true
	})
}

// checkMapOrderAppend flags appends that capture the map's values (not just
// its keys) in iteration order, unless the destination slice is sorted
// later in the same function.
func (p *Pass) checkMapOrderAppend(fd *ast.FuncDecl, rs *ast.RangeStmt, call *ast.CallExpr, valueObj types.Object, mapText string) {
	capturesValue := false
	for _, arg := range call.Args[1:] {
		ast.Inspect(arg, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if valueObj != nil && p.identObj(n) == valueObj {
					capturesValue = true
				}
			case *ast.IndexExpr:
				if types.ExprString(n.X) == mapText {
					capturesValue = true
				}
			}
			return !capturesValue
		})
	}
	if !capturesValue {
		return // keys-only collection: the sorted-keys idiom's first half
	}
	if dst := p.identObj(rootExpr(call.Args[0])); dst != nil && p.sortedAfter(fd, rs.End(), dst) {
		return
	}
	p.Reportf(call.Pos(), "append captures values of map %s in random iteration order; sort the keys first (or sort the result)", mapText)
}

// sortedAfter reports whether obj is passed to a sort/slices call after
// pos inside fd.
func (p *Pass) sortedAfter(fd *ast.FuncDecl, pos token.Pos, obj types.Object) bool {
	sorted := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= pos || sorted {
			return !sorted
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !(p.isPkgName(sel.X, "sort") || p.isPkgName(sel.X, "slices")) {
			return true
		}
		for _, arg := range call.Args {
			if p.identObj(rootExpr(arg)) == obj {
				sorted = true
			}
		}
		return !sorted
	})
	return sorted
}

// identObj resolves an expression to the object of its identifier, through
// either a use or a definition (range clauses define their variables).
func (p *Pass) identObj(e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if o := p.Info.Uses[id]; o != nil {
		return o
	}
	return p.Info.Defs[id]
}

// rootExpr unwraps selectors and indexes down to the base expression.
func rootExpr(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return e
		}
	}
}
