// Package kerneldet enforces determinism on kernel bodies. The §IV
// parity probe asserts bit-identical prices across the FPGA, GPU and
// CPU platforms; that only holds if every function reachable from a
// kernel body (the function literal handed to opencl.NewKernel) is a
// pure function of its inputs. Four nondeterminism vectors are flagged:
//
//   - map iteration: Go randomises range order, so any map range can
//     reorder floating-point accumulation between runs;
//   - wall-clock and PRNG calls: time.Now / global math/rand draws make
//     a kernel's output depend on when and how often it ran;
//   - mutable package-level state: a kernel reading or writing a global
//     var couples work-items and replays;
//   - math.FMA: fused multiply-add rounds once where the separate
//     operations round twice — exactly the class of per-platform
//     contraction difference the parity probe exists to catch.
//
// The analysis is reachability-based within the package. Roots are the
// function literals handed to opencl.NewKernel plus any function whose
// doc comment carries a //binopt:kernel directive — the host-side
// kernel realisations (the lattice engine's scalar and quad sweeps)
// that implement the same arithmetic without flowing through the
// simulated runtime. Statically-resolved calls to same-package
// functions extend the checked set from either kind of root.
package kerneldet

import (
	"go/ast"
	"go/types"
	"strings"

	"binopt/internal/lint"
)

// Analyzer flags nondeterminism reachable from opencl.NewKernel bodies
// or from functions marked //binopt:kernel.
var Analyzer = &lint.Analyzer{
	Name: "kerneldet",
	Doc: "kernel bodies (opencl.NewKernel literals and //binopt:kernel " +
		"functions) and the package functions they call must be " +
		"deterministic: no map iteration, no time.Now or unseeded math/rand, " +
		"no mutable package-level state, no math.FMA",
	Run: run,
}

// kernelMark is the doc-comment directive declaring a function a
// host-side kernel realisation and therefore a determinism root.
const kernelMark = "//binopt:kernel"

func run(pass *lint.Pass) error {
	// Index this package's function declarations by their object so
	// calls resolve to bodies.
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				decls[obj] = fd
			}
		}
	}

	// Roots: function literals passed as the kernel body argument of
	// opencl.NewKernel (recognised by name so testdata can stub the
	// runtime package), plus declarations marked //binopt:kernel.
	var roots []ast.Node
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil && hasKernelMark(fd.Doc) {
				roots = append(roots, fd.Body)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := lint.CalleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Name() != "NewKernel" || fn.Pkg() == nil || fn.Pkg().Name() != "opencl" {
				return true
			}
			if len(call.Args) < 3 {
				return true
			}
			if lit, ok := ast.Unparen(call.Args[2]).(*ast.FuncLit); ok {
				roots = append(roots, lit)
			}
			return true
		})
	}
	if len(roots) == 0 {
		return nil
	}

	// Breadth-first reachability over statically-resolved same-package
	// calls. Function literals nested in a reachable body are walked in
	// place by ast.Inspect.
	visited := make(map[ast.Node]bool)
	queue := roots
	for len(queue) > 0 {
		body := queue[0]
		queue = queue[1:]
		if visited[body] {
			continue
		}
		visited[body] = true
		check(pass, body)
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := lint.CalleeFunc(pass.TypesInfo, call)
			if fn == nil {
				return true
			}
			if fd, ok := decls[fn]; ok && !visited[fd.Body] {
				queue = append(queue, fd.Body)
			}
			return true
		})
	}
	return nil
}

// hasKernelMark reports whether a doc comment carries the
// //binopt:kernel directive (a line comment starting with the marker;
// trailing free text describes the kernel).
func hasKernelMark(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, kernelMark) {
			rest := c.Text[len(kernelMark):]
			if rest == "" || rest[0] == ' ' || rest[0] == '\t' {
				return true
			}
		}
	}
	return false
}

// check walks one reachable body and reports determinism violations.
func check(pass *lint.Pass, body ast.Node) {
	info := pass.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					pass.Reportf(n.For, "kernel-reachable code ranges over a map; "+
						"iteration order is randomised and breaks replayable pricing")
				}
			}
		case *ast.CallExpr:
			switch {
			case lint.IsPkgFunc(info, n, "time", "Now", "Since", "Until", "Sleep", "After", "Tick", "NewTimer", "NewTicker"):
				pass.Reportf(n.Pos(), "kernel-reachable code calls time.%s; "+
					"kernels must be pure functions of their arguments",
					lint.CalleeFunc(info, n).Name())
			case isGlobalRand(info, n):
				pass.Reportf(n.Pos(), "kernel-reachable code draws from the shared math/rand source; "+
					"use an explicitly seeded *rand.Rand outside the kernel")
			case lint.IsPkgFunc(info, n, "math", "FMA"):
				pass.Reportf(n.Pos(), "kernel-reachable code calls math.FMA; "+
					"fused contraction differs across platforms and breaks bit parity")
			}
		case *ast.Ident:
			if v, ok := info.Uses[n].(*types.Var); ok && isMutableGlobal(v) {
				pass.Reportf(n.Pos(), "kernel-reachable code touches package-level variable %s; "+
					"kernels must not read or write mutable global state", v.Name())
			}
		}
		return true
	})
}

// isGlobalRand matches package-level draws from math/rand or
// math/rand/v2 — the constructors for explicitly-seeded generators are
// allowed.
func isGlobalRand(info *types.Info, call *ast.CallExpr) bool {
	fn := lint.CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	if path != "math/rand" && path != "math/rand/v2" {
		return false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return false // methods on a seeded *rand.Rand are deterministic
	}
	switch fn.Name() {
	case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
		return false
	}
	return true
}

// isMutableGlobal reports whether v is a package-level var. Error
// sentinels are tolerated: comparing against a fixed error value is
// deterministic and pervasive.
func isMutableGlobal(v *types.Var) bool {
	if v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return false
	}
	if named, ok := v.Type().(*types.Named); ok && named.Obj().Name() == "error" {
		return false
	}
	if types.Identical(v.Type(), types.Universe.Lookup("error").Type()) {
		return false
	}
	return true
}
