package repro

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowed lists the production functions that no binary reaches but
// that stay, each with the test or decision that keeps it. Everything else
// a binary does not run is deleted, or moved into its package's _test.go
// files when only that package's tests use it.
var reachAllowed = map[string]string{
	// The library facade (DESIGN.md, "Library surface"): each is a short
	// delegation to code a binary runs, documented in README and doc.go.
	"repro.(*Sample).Norm":              "library facade",
	"repro.(*Sample).Weighted":          "library facade",
	"repro.ClusterSamplePartitioned":    "library facade",
	"repro.FingerprintDataset":          "library facade",
	"repro.LoadCSV":                     "library facade",
	"repro.NewRecorder":                 "library facade",
	"repro.OpenBinary":                  "library facade",
	"repro.ReservoirSample":             "library facade",
	"repro.SaveBinary":                  "library facade",
	"repro.WeightedKMeans":              "library facade",
	"repro.WeightedKMedoids":            "library facade",
	"repro/internal/dataset.SaveBinary": "the facade's SaveBinary; core, server and root tests write their fixtures with it",

	// Pass counters: the tests of dataset, core, kde, server, faults and
	// the baselines assert how many passes each algorithm makes.
	"repro/internal/dataset.(*FileBacked).Passes":   "pass-count assertions across packages' tests",
	"repro/internal/dataset.(*InMemory).Passes":     "pass-count assertions across packages' tests",
	"repro/internal/dataset.(*SegmentFile).Passes":  "pass-count assertions across packages' tests",
	"repro/internal/dataset.(*window).Passes":       "pass-count assertions across packages' tests",
	"repro/internal/faults.(*faultyDataset).Passes": "pass-count assertions across packages' tests",

	// Fault-injection accounting the server's chaos suite asserts on.
	"repro/internal/faults.(*Point).Fired":       "server chaos tests",
	"repro/internal/faults.(*Point).FiredErrors": "server chaos tests",
	"repro/internal/faults.(*Point).Site":        "server chaos tests",

	// Fixtures other packages' tests build from.
	"repro/internal/geom.NewRect":                "kde, eval and synth tests",
	"repro/internal/geom.BoundingRect":           "cure property tests",
	"repro/internal/geom.Centroid":               "cure and birch tests",
	"repro/internal/geom.Point.Norm":             "synth tests",
	"repro/internal/kde.FromCenters":             "core incremental tests build estimators of known shape",
	"repro/internal/kde.(*Estimator).Bandwidths": "core incremental tests",
	"repro/internal/kde.(*Estimator).Kernel":     "core incremental tests",
	"repro/internal/stats.(*RNG).SplitsValues":   "core reference sampler",

	// The mass-normalisation oracle: ∫ f over a box is exact through the
	// kernels' CDFs, so the kde tests pin the estimator's total mass to n.
	"repro/internal/kde.(*Estimator).IntegrateBox": "mass-normalisation oracle",
	"repro/internal/kde.Epanechnikov.CDF":          "mass-normalisation oracle",
	"repro/internal/kde.Biweight.CDF":              "mass-normalisation oracle",
	"repro/internal/kde.Triangular.CDF":            "mass-normalisation oracle",
	"repro/internal/kde.Uniform.CDF":               "mass-normalisation oracle",
	"repro/internal/kde.Gaussian.CDF":              "mass-normalisation oracle",

	// Theorem 1, kept for the property suite's Monte Carlo check of the
	// biased-versus-uniform crossover (ROADMAP item 7).
	"repro/internal/theory.BiasedBeatsUniform": "Theorem 1 (ROADMAP item 7)",
	"repro/internal/theory.SavingsFactor":      "Theorem 1 (ROADMAP item 7)",
}

// TestReachGuard fails on any production function or method that none of
// the repository's binaries reaches and that reachAllowed does not name.
// It builds every command, every example and the bench module with
// inlining off (-gcflags=all=-l, so each call keeps its symbol) and
// -ldflags=-dumpdep, which prints the linker's reachability edges, then
// parses every non-test .go file outside bench/ and looks each function
// declaration up among the edges' targets. Methods reached only through an
// interface appear as the edges of their type's method table. Gated behind
// REACH_GUARD=1 because it builds thirteen binaries; verify.sh sets it.
func TestReachGuard(t *testing.T) {
	if os.Getenv("REACH_GUARD") == "" {
		t.Skip("set REACH_GUARD=1 to run the reachability gate (verify.sh does)")
	}
	var mains []string
	for _, pattern := range []string{"cmd/*", "examples/*"} {
		dirs, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		mains = append(mains, dirs...)
	}
	mains = append(mains, "bench")
	reached := map[string]bool{}
	out := t.TempDir()
	for _, dir := range mains {
		cmd := exec.Command("go", "build", "-o", filepath.Join(out, filepath.Base(dir)),
			"-gcflags=all=-l", "-ldflags=-dumpdep", ".")
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("build %s: %v\n%s", dir, err, stderr.Bytes())
		}
		// A binary's own functions are named main.X; file them under the
		// directory's import path, as the parser below names them.
		mainPath := "repro/" + filepath.ToSlash(dir)
		sc := bufio.NewScanner(&stderr)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			_, to, ok := strings.Cut(sc.Text(), " -> ")
			if !ok {
				continue
			}
			if i := strings.LastIndex(to, " <"); i >= 0 && strings.HasSuffix(to, ">") {
				to = to[:i] // drop an attribute such as <UsedInIface>
			}
			if rest, ok := strings.CutPrefix(to, "main."); ok {
				to = mainPath + "." + rest
			}
			if strings.HasPrefix(to, "repro/") || strings.HasPrefix(to, "repro.") {
				reached[stripShapes(to)] = true
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("read %s's edges: %v", dir, err)
		}
	}

	var unreached []string
	allowedSeen := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && p != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join("repro", filepath.ToSlash(filepath.Dir(p)))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			names := symbolNames(pkg, fn)
			hit := false
			for _, name := range names {
				hit = hit || reached[name]
			}
			switch _, allowed := reachAllowed[names[0]]; {
			case hit:
			case allowed:
				allowedSeen[names[0]] = true
			default:
				unreached = append(unreached, names[0]+" ("+fset.Position(fn.Pos()).String()+")")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name := range reachAllowed {
		if !allowedSeen[name] {
			t.Errorf("%s is on the allowlist but is reached by a binary or no longer declared: take it off", name)
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("no binary reaches %s", u)
	}
	if len(unreached) > 0 {
		t.Errorf("%d production functions are unreached: delete each, move it into its package's tests, or allowlist it with the reason it stays", len(unreached))
	}
}

// symbolNames returns the linker symbols a function declaration may
// compile to, the canonical one first: pkg.F, pkg.(*T).M, or pkg.T.M
// together with the pointer wrapper pkg.(*T).M that calls it.
func symbolNames(pkg string, fn *ast.FuncDecl) []string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return []string{pkg + "." + fn.Name.Name}
	}
	typ := fn.Recv.List[0].Type
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		star, typ = true, s.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	recv := typ.(*ast.Ident).Name
	ptr := pkg + ".(*" + recv + ")." + fn.Name.Name
	if star {
		return []string{ptr}
	}
	return []string{pkg + "." + recv + "." + fn.Name.Name, ptr}
}

// stripShapes removes the bracketed type arguments of a generic
// instantiation, pkg.F[go.shape.int] → pkg.F.
func stripShapes(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}
