package lint

import (
	"go/ast"
)

// wireScope is the set of packages that decode wire or on-disk documents:
// checkpoint records, sweep specs, option documents, cache entries, worker
// responses. Every decode in them must reject unknown fields, or schema
// drift silently half-reads documents instead of failing loudly.
var wireScope = []string{
	"internal/accel",
	"internal/backend",
	"internal/canon",
	"internal/baseline",
	"internal/dse",
	"internal/fleet",
	"internal/hw",
	"internal/serve",
	"internal/tracefile",
	"internal/workload",
}

// StrictJSON forbids lenient JSON decoding in wire packages: raw
// json.Unmarshal always, and json.NewDecoder unless the surrounding
// function is a strict codec (calls DisallowUnknownFields) or a token
// streamer (calls Token, which surfaces every field to the caller and so
// cannot drop one silently).
var StrictJSON = &Analyzer{
	Name:  "strict-json",
	Doc:   "forbid unknown-field-tolerant JSON decoding in wire packages",
	Scope: wireScope,
	Run:   runStrictJSON,
}

func runStrictJSON(p *Pass) {
	p.walkFuncs(func(fd *ast.FuncDecl) {
		strictish := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok &&
					(sel.Sel.Name == "DisallowUnknownFields" || sel.Sel.Name == "Token") {
					strictish = true
				}
			}
			return true
		})
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if p.pkgFunc(call, "encoding/json", "Unmarshal") {
				p.Reportf(call.Pos(), "raw json.Unmarshal tolerates unknown fields in a wire package; decode through the package's strict codec (DisallowUnknownFields)")
			}
			if p.pkgFunc(call, "encoding/json", "NewDecoder") && !strictish {
				p.Reportf(call.Pos(), "json.NewDecoder without DisallowUnknownFields in a wire package; call dec.DisallowUnknownFields() (or stream tokens) so unknown fields reject")
			}
			return true
		})
	})
}
