package repro

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// knobAllowed lists the exported fields of exported *Options, *Config and
// *Params structs that no code outside tests and the declaring package
// sets but that stay, each with its reason. Every other such field is
// made a constant or deleted.
var knobAllowed = map[string]string{
	// The library facade (DESIGN.md, "Library surface"): documented
	// settings of the public API, each passed straight to the internal
	// option that the binaries set.
	"repro.ClusterOptions.NumReps":     "library facade: CURE's representatives per cluster",
	"repro.ClusterOptions.Shrink":      "library facade: CURE's shrink factor",
	"repro.ClusterOptions.Parallelism": "library facade: CURE's worker budget",
	"repro.ClusterOptions.Ctx":         "library facade: cancels the clustering",
	"repro.ClusterOptions.Obs":         "library facade: records the clustering",
	"repro.SampleOptions.FloorDensity": "library facade: the density floor for a < 0",
	"repro.SampleOptions.OnePass":      "library facade: the one-pass approximate normalizer",
	"repro.SampleOptions.VerifyNorm":   "library facade: the opt-in audit of the one-pass normalizer",
	"repro.SampleOptions.Parallelism":  "library facade: the draw's worker budget",
	"repro.SampleOptions.Ctx":          "library facade: cancels the draw",
	"repro.SampleOptions.Obs":          "library facade: records the draw",
	"repro.SampleOptions.Progress":     "library facade: the draw's progress callback",

	// Test seams.
	"repro/internal/faults.Config.Skip":     "chaos tests exempt a request's first operations from injection",
	"repro/internal/core.Options.BlockSize": "small blocks on small data: FuzzShardReply's 8-row blocks, TestDrawSteadyStateAllocs's 512 blocks",
}

// knobSuffixes name the struct types whose fields are settings.
var knobSuffixes = []string{"Options", "Config", "Params"}

// TestKnobGuard fails on any exported field of an exported struct type
// whose name ends in Options, Config or Params that no non-test code
// outside the field's own package sets, unless knobAllowed names it with
// its reason, and on an allowlist entry that names no such field. A
// field is set by a composite literal (keyed, or positional up to its
// place), by an assignment or increment through it, or by taking its
// address (flag.IntVar(&cfg.N, ...)). A knob that only tests set keeps
// its reader reachable, so TestReachGuard cannot see it; this guard can.
// It type-checks every non-test .go file of the repository, bench/
// included, from source (the standard library through the source
// importer), so field owners resolve by type, not by name.
func TestKnobGuard(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path → non-test files
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && p != "." {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dir := filepath.Dir(p)
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		abs, err := filepath.Abs(p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, abs, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join("repro", filepath.ToSlash(dir))
		files[pkg] = append(files[pkg], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	imp := &repoImporter{
		fset:  fset,
		files: files,
		pkgs:  map[string]*types.Package{},
		std:   importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		imp.check(p)
	}
	for _, err := range imp.errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Every candidate field, by object, and whether a caller sets it.
	knobs := map[*types.Var]string{}
	for _, p := range paths {
		scope := imp.pkgs[p].Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() || !hasKnobSuffix(name) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					knobs[f] = p + "." + name + "." + f.Name()
				}
			}
		}
	}
	set := map[*types.Var]bool{}
	for _, p := range paths {
		mark := func(v *types.Var) {
			if v.Pkg() != nil && v.Pkg().Path() != p {
				set[v] = true
			}
		}
		for _, f := range files[p] {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					imp.markLiteral(n, mark)
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						imp.markThrough(lhs, mark)
					}
				case *ast.IncDecStmt:
					imp.markThrough(n.X, mark)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						imp.markThrough(n.X, mark)
					}
				}
				return true
			})
		}
	}

	var unset []string
	declared := map[string]bool{}
	for v, key := range knobs {
		declared[key] = true
		if _, allowed := knobAllowed[key]; allowed {
			if set[v] {
				t.Errorf("%s is on the allowlist but non-test code outside its package sets it: take it off", key)
			}
			continue
		}
		if !set[v] {
			unset = append(unset, key+" ("+fset.Position(v.Pos()).String()+")")
		}
	}
	for key, reason := range knobAllowed {
		if !declared[key] {
			t.Errorf("%s is on the allowlist but is no longer declared: take it off", key)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s is on the allowlist without a reason", key)
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("no non-test code outside its package sets %s", u)
	}
	if len(unset) > 0 {
		t.Errorf("%d settings only tests set: make each a constant, delete it, or allowlist it with the reason it stays", len(unset))
	}
}

func hasKnobSuffix(name string) bool {
	for _, s := range knobSuffixes {
		if strings.HasSuffix(name, s) {
			return true
		}
	}
	return false
}

// repoImporter type-checks the repository's packages from the parsed
// files, each once, recording into one shared Info so a field has one
// object wherever it is used, and imports everything else from source.
type repoImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	pkgs  map[string]*types.Package
	std   types.ImporterFrom
	info  *types.Info
	errs  []error
}

func (r *repoImporter) Import(path string) (*types.Package, error) {
	return r.ImportFrom(path, "", 0)
}

func (r *repoImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := r.files[path]; ok {
		return r.check(path), nil
	}
	return r.std.ImportFrom(path, dir, mode)
}

func (r *repoImporter) check(path string) *types.Package {
	if p, ok := r.pkgs[path]; ok {
		return p
	}
	conf := types.Config{Importer: r, Error: func(err error) { r.errs = append(r.errs, err) }}
	p, _ := conf.Check(path, r.fset, r.files[path], r.info)
	r.pkgs[path] = p
	return p
}

// markLiteral marks the fields a struct literal sets: each keyed field,
// or every field up to the last positional element.
func (r *repoImporter) markLiteral(lit *ast.CompositeLit, mark func(*types.Var)) {
	st, ok := derefStruct(r.info.TypeOf(lit))
	if !ok {
		return
	}
	for i, e := range lit.Elts {
		kv, ok := e.(*ast.KeyValueExpr)
		if !ok {
			mark(st.Field(i))
			continue
		}
		if id, ok := kv.Key.(*ast.Ident); ok {
			if v, ok := r.info.Uses[id].(*types.Var); ok {
				mark(v)
			}
		}
	}
}

// markThrough marks every field selected on the way to an assigned or
// addressed expression: cfg.Tenants[i].Weight = w sets Weight and
// Tenants.
func (r *repoImporter) markThrough(e ast.Expr, mark func(*types.Var)) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if sel, ok := r.info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				mark(sel.Obj().(*types.Var))
			}
			e = x.X
		default:
			return
		}
	}
}

func derefStruct(t types.Type) (*types.Struct, bool) {
	if t == nil {
		return nil, false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}
