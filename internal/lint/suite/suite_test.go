package suite

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"binopt/internal/lint"
)

// TestAnalyzerRegistry pins the suite's shape: nine distinct, documented
// analyzers under the names the suppression directives refer to.
func TestAnalyzerRegistry(t *testing.T) {
	want := map[string]bool{
		"barrieruse": true, "floateq": true, "kerneldet": true,
		"locksafe": true, "unitcheck": true,
		"atomicmix": true, "ctxflow": true, "errdrop": true,
		"spawncheck": true,
	}
	seen := map[string]bool{}
	for _, a := range Analyzers {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Fatalf("analyzer %q is missing a name, doc or run function", a.Name)
		}
		if seen[a.Name] {
			t.Fatalf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if !want[a.Name] {
			t.Errorf("unexpected analyzer %q in the suite", a.Name)
		}
	}
	if len(seen) != len(want) {
		t.Errorf("suite has %d analyzers, want %d", len(seen), len(want))
	}
}

// TestRepoIsClean runs the whole suite over the repository — the same
// gate CI applies. Every deliberate exception in the tree carries a
// //binopt:ignore directive with a written reason, so a finding here is
// either a real defect or an undocumented exception; both should fail.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide lint type-checks every package; skipped in -short")
	}
	root := filepath.Join("..", "..", "..")
	diags, err := lint.Run(Analyzers, root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// testOnlyAllowed names the exported internal/ functions and methods
// that no production file calls but that stay anyway, each with the
// reason. Keys are "pkg.Func" or "pkg.Type.Method", pkg relative to
// binopt/internal.
var testOnlyAllowed = map[string]string{
	"bs.PriceAndGreeks":                     "closed-form reference the lattice and portfolio Greeks tests compare against",
	"heston.EuropeanCall":                   "semi-analytic reference the Euler simulator's tests compare against",
	"kernels.RunIVA":                        "the paper's kernel IV.A; the Fig. 3 and Table II tests and the root BenchmarkIVA run it",
	"mathx.AlmostEqual":                     "tolerance comparison the bs and lattice tests share",
	"omhist.Histogram.Count":                "serve's batcher tests count flushed batches through it",
	"omhist.Histogram.Sum":                  "serve's batcher tests sum flushed batch sizes through it",
	"omhist.Histogram.Quantile":             "serve's metrics tests check the latency bucket layout's resolution through it",
	"opencl.CommandQueue.EnableHazardCheck": "the work-item hazard checker the kernels tests run the paper kernels under",
}

// TestNoTestOnlyExports holds the tree to production code: every
// exported function or method declared in a non-test file under
// internal/ (the lint framework excluded) must be used by some non-test
// file of the root module or of the bench module, satisfy an interface,
// or carry a reason in testOnlyAllowed. An allowlist entry that names
// nothing, or whose target has gained a production caller, fails too.
func TestNoTestOnlyExports(t *testing.T) {
	if testing.Short() {
		t.Skip("module-wide export check type-checks every package; skipped in -short")
	}
	root := filepath.Join("..", "..", "..")
	var units []*lint.LoadedPackage
	for _, dir := range []string{root, filepath.Join(root, "bench")} {
		pkgs, err := lint.Load(dir, []string{"./..."})
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, pkgs...)
	}
	decls, used := exportedDecls(units), productionUses(units)
	for key := range satisfiers(units, decls) {
		used[key] = true
	}
	var found []string
	for key, pos := range decls {
		if !used[key] && testOnlyAllowed[key] == "" {
			found = append(found, pos+": "+key+" is exported but only tests use it")
		}
	}
	for key := range testOnlyAllowed {
		if _, ok := decls[key]; !ok {
			found = append(found, "allowlist: "+key+" names no exported internal/ function")
		} else if used[key] {
			found = append(found, "allowlist: "+key+" has a production caller; drop its entry")
		}
	}
	sort.Strings(found)
	for _, f := range found {
		t.Error(f)
	}
}

const internalPrefix = "binopt/internal/"

// funcKey names fn the way testOnlyAllowed does, or returns "" for a
// function outside internal/ or an interface method.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	if fn.Pkg() == nil || !strings.HasPrefix(fn.Pkg().Path(), internalPrefix) {
		return ""
	}
	name := strings.TrimPrefix(fn.Pkg().Path(), internalPrefix) + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		rt := recv.Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		named, ok := rt.(*types.Named)
		if !ok || types.IsInterface(named) {
			return ""
		}
		name += named.Obj().Name() + "."
	}
	return name + fn.Name()
}

// inTestFile reports whether pos lies in a _test.go file of u's file set.
func inTestFile(u *lint.LoadedPackage, pos token.Pos) bool {
	return strings.HasSuffix(u.Fset.Position(pos).Filename, "_test.go")
}

// exportedDecls maps every exported function and method declared in a
// non-test internal/ file, the lint framework excluded, to its position.
func exportedDecls(units []*lint.LoadedPackage) map[string]string {
	decls := map[string]string{}
	for _, u := range units {
		path := u.Pkg.Path()
		if !strings.HasPrefix(path, internalPrefix) || strings.HasPrefix(path, internalPrefix+"lint") {
			continue
		}
		for _, f := range u.Files {
			if inTestFile(u, f.Pos()) {
				continue
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				if fn, ok := u.Info.Defs[fd.Name].(*types.Func); ok {
					if key := funcKey(fn); key != "" {
						decls[key] = u.Fset.Position(fd.Pos()).String()
					}
				}
			}
		}
	}
	return decls
}

// productionUses collects the internal/ functions and methods that some
// non-test file refers to.
func productionUses(units []*lint.LoadedPackage) map[string]bool {
	used := map[string]bool{}
	for _, u := range units {
		for _, f := range u.Files {
			if inTestFile(u, f.Pos()) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if fn, ok := u.Info.Uses[id].(*types.Func); ok {
						if key := funcKey(fn); key != "" {
							used[key] = true
						}
					}
				}
				return true
			})
		}
	}
	return used
}

// satisfiers returns the declared methods that implement a method of an
// interface declared outside test files, which a call through the
// interface reaches without naming them. Each unit is checked in its own
// type universe: the interfaces its package declares or imports against
// the internal/ types it can see.
func satisfiers(units []*lint.LoadedPackage, decls map[string]string) map[string]bool {
	out := map[string]bool{}
	for _, u := range units {
		var ifaces []*types.Interface
		var named []*types.Named
		seen := map[*types.Package]bool{}
		var walk func(p *types.Package)
		walk = func(p *types.Package) {
			if seen[p] {
				return
			}
			seen[p] = true
			scope := p.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || inTestFile(u, tn.Pos()) {
					continue
				}
				n, ok := tn.Type().(*types.Named)
				if !ok {
					continue
				}
				if it, ok := n.Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				} else if n.TypeParams().Len() == 0 && strings.HasPrefix(p.Path(), internalPrefix) {
					named = append(named, n)
				}
			}
			for _, imp := range p.Imports() {
				walk(imp)
			}
		}
		walk(u.Pkg)
		ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
		for _, f := range u.Files {
			if inTestFile(u, f.Pos()) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					if t, ok := u.Info.Types[it].Type.(*types.Interface); ok {
						ifaces = append(ifaces, t)
					}
				}
				return true
			})
		}
		for _, n := range named {
			for i := 0; i < n.NumMethods(); i++ {
				m := n.Method(i)
				key := funcKey(m)
				if _, ok := decls[key]; !ok || out[key] {
					continue
				}
				for _, it := range ifaces {
					if obj, _, _ := types.LookupFieldOrMethod(it, false, m.Pkg(), m.Name()); obj == nil {
						continue
					}
					// *T's method set includes T's.
					if types.Implements(types.NewPointer(n), it) {
						out[key] = true
						break
					}
				}
			}
		}
	}
	return out
}
