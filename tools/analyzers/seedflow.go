package analyzers

import (
	"go/ast"
)

// SeedFlow flags rand.Rand construction whose seed derives from a
// nondeterministic source: a wall-clock read (time.Now, or a
// Unix*/Nanosecond method call, which in practice only time.Time
// carries), the process id, or crypto/rand. Every campaign in this
// codebase must be reproducible from Options.Seed alone — RunOnce, the
// lane-batched campaign loop, and the parallel runners all promise
// bit-identical results for a fixed seed, and a wall-clock seed silently
// voids that contract while everything still "works".
//
// Seeds that are literals, named constants, or arithmetic over
// variables (the deterministic shard/chunk derivations) pass. A
// deliberate nondeterministic seed (none exist today) would be
// suppressed with a //seed-ok comment on the line or the line above.
var SeedFlow = &Analyzer{
	Name: "seedflow",
	Doc:  "flag rand sources seeded from wall clock/pid/crypto-rand (suppress with //seed-ok)",
	Run: func(p *Pass) {
		for _, f := range p.Files {
			if f.Test {
				continue
			}
			randName, imported := importedAs(f.AST, "math/rand")
			if !imported {
				continue
			}
			timeName, _ := importedAs(f.AST, "time")
			osName, _ := importedAs(f.AST, "os")
			cryptoName, _ := importedAs(f.AST, "crypto/rand")
			ok := commentLines(p.Fset, f.AST, "seed-ok")
			ast.Inspect(f.AST, func(n ast.Node) bool {
				call, isCall := n.(*ast.CallExpr)
				if !isCall {
					return true
				}
				sel, isSel := call.Fun.(*ast.SelectorExpr)
				if !isSel {
					return true
				}
				pkg, isIdent := sel.X.(*ast.Ident)
				if !isIdent || pkg.Name != randName {
					return true
				}
				var seed ast.Expr
				switch sel.Sel.Name {
				case "NewSource":
					if len(call.Args) == 1 {
						seed = call.Args[0]
					}
				case "New":
					// rand.New(rand.NewSource(...)) is covered when the
					// inner call is visited; only inspect other sources.
					if len(call.Args) == 1 && !isRandCall(call.Args[0], randName) {
						seed = call.Args[0]
					}
				case "Seed":
					if len(call.Args) == 1 {
						seed = call.Args[0]
					}
				}
				if seed == nil {
					return true
				}
				src := nondetSource(seed, timeName, osName, cryptoName)
				if src == "" {
					return true
				}
				line := p.Fset.Position(call.Pos()).Line
				if !ok[line] && !ok[line-1] {
					p.Reportf(call.Pos(), "rand seed flows from %s: campaigns must be reproducible from a fixed seed (derive from Options.Seed, or mark //seed-ok with the reason)", src)
				}
				return true
			})
		}
	},
}

// isRandCall reports whether the expression is a call into the math/rand
// package (under its local import name).
func isRandCall(x ast.Expr, randName string) bool {
	call, isCall := x.(*ast.CallExpr)
	if !isCall {
		return false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return false
	}
	pkg, isIdent := sel.X.(*ast.Ident)
	return isIdent && pkg.Name == randName
}

// wallClockMethods are method names that, on any receiver, read the
// wall clock in practice (time.Time accessors).
var wallClockMethods = map[string]bool{
	"UnixNano": true, "UnixMicro": true, "UnixMilli": true, "Unix": true,
	"Nanosecond": true,
}

// nondetSource scans a seed expression for nondeterministic inputs and
// describes the first one found ("" when the seed is deterministic).
func nondetSource(seed ast.Expr, timeName, osName, cryptoName string) string {
	src := ""
	ast.Inspect(seed, func(n ast.Node) bool {
		if src != "" {
			return false
		}
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		sel, isSel := call.Fun.(*ast.SelectorExpr)
		if !isSel {
			return true
		}
		if wallClockMethods[sel.Sel.Name] {
			src = "the wall clock (." + sel.Sel.Name + ")"
			return false
		}
		pkg, isIdent := sel.X.(*ast.Ident)
		if !isIdent {
			return true
		}
		switch {
		case timeName != "" && pkg.Name == timeName && sel.Sel.Name == "Now":
			src = "the wall clock (time.Now)"
		case osName != "" && pkg.Name == osName && sel.Sel.Name == "Getpid":
			src = "the process id (os.Getpid)"
		case cryptoName != "" && pkg.Name == cryptoName:
			src = "crypto/rand"
		}
		return src == ""
	})
	return src
}
