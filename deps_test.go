package mpj

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestLinkedPackages keeps what a rank process maps small. The control
// plane is ten typed calls and one JSON document (internal/rpc,
// internal/prof); linking net/http for them — with crypto/tls,
// crypto/x509, math/big and http2 behind it — doubled every binary, and
// net/rpc's registration by reflection made the linker keep every
// exported method of every reachable type. Neither may come back
// unnoticed.
func TestLinkedPackages(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	out, err := exec.Command(goTool, "list", "-deps", "mpj", "./cmd/mpjd", "./cmd/mpjrun", "./cmd/mpjlookup").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	banned := map[string]bool{
		"net/http": true, "crypto/tls": true, "net/rpc": true,
		"expvar": true, "html/template": true, "text/template": true,
	}
	for _, pkg := range strings.Fields(string(out)) {
		if banned[pkg] {
			t.Errorf("%s is linked into mpj or a command", pkg)
		}
	}
}

// TestNoReflectedMethods: a call of reflect's Method or MethodByName
// anywhere in a binary makes the linker keep every exported method of
// every reachable type (≈1.1 MB of text here). The scan is syntactic: a
// .Method or .MethodByName call in a non-test file that imports reflect.
func TestNoReflectedMethods(t *testing.T) {
	fset, files := moduleSources(t)
	for _, f := range files {
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "reflect" {
				reportMethodCalls(t, fset, f)
				break
			}
		}
	}
}

// moduleSources parses every non-test Go file of module mpj, keyed by
// path: nested modules (benchmark/), testdata and hidden directories are
// left out.
func moduleSources(t *testing.T) (*token.FileSet, map[string]*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	files := make(map[string]*ast.File)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a module of its own
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files[path] = f
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, files
}

// TestEnvReads: the environment variables the program reads are exactly
// these, so that a new setting takes a deliberate edit here and a
// retired one cannot linger. The scan is syntactic: every os.Getenv or
// os.LookupEnv call in a non-test file outside benchmark/ (which clears
// the variables to isolate its runs), whose argument must be a literal.
func TestEnvReads(t *testing.T) {
	want := []string{"GOMAXPROCS", "MPJ_FAULT", "MPJ_PROF", "MPJ_PROF_ADDR", "MPJ_SLAVE"}
	read := make(map[string]bool)
	eachEnvRead(t, func(_ token.Position, _, name string) { read[name] = true })
	if got := slices.Sorted(maps.Keys(read)); !slices.Equal(got, want) {
		t.Errorf("the program reads %v, want %v", got, want)
	}
}

// TestOneConfigPath: a job's instrumentation is resolved once, in the
// process that launches it, and travels in every slave's spec; no other
// code reads an MPJ_* variable. An MPJ_* read must fall under one entry
// below, a function that may read any of them or one variable read
// anywhere.
func TestOneConfigPath(t *testing.T) {
	allowed := map[string]string{
		"func resolveProf": "the resolver: a job's instrumentation, read once where the job is launched",
		"func IsSlave":     "a spawned process knows itself by its encoded spec",
		"func SlaveMain":   "the spec decoder: a process slave's whole spec is one variable",
		"MPJ_PROF_ADDR":    "the address of a process's /debug/vars endpoint: deployment, not a job setting",
		"MPJ_FAULT":        "RunLocal's fault-injection harness, set per test process",
	}
	sites := 0
	eachEnvRead(t, func(pos token.Position, fn, name string) {
		if !strings.HasPrefix(name, "MPJ_") {
			return
		}
		sites++
		if why, ok := allowed[fn]; ok {
			t.Logf("%s: %s reads %s: %s", pos, fn, name, why)
		} else if why, ok := allowed[name]; ok {
			t.Logf("%s: reads %s: %s", pos, name, why)
		} else {
			t.Errorf("%s: %s reads %s: a job's setting belongs in the resolver and travels in the slave spec", pos, fn, name)
		}
	})
	t.Logf("%d MPJ_* reads", sites)
}

// eachEnvRead calls f with the position, the enclosing top-level function
// ("func Name", or "" outside one) and the variable of every os.Getenv or
// os.LookupEnv call in the module's non-test files outside benchmark/. A
// call whose argument is not a string literal fails the test: its
// variable cannot be checked.
func eachEnvRead(t *testing.T, f func(pos token.Position, fn, name string)) {
	t.Helper()
	fset, files := moduleSources(t)
	for path, file := range files {
		if strings.HasPrefix(filepath.ToSlash(path), "benchmark/") {
			continue
		}
		for _, decl := range file.Decls {
			fn := ""
			if d, ok := decl.(*ast.FuncDecl); ok {
				fn = "func " + d.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				name, ok, lit := envRead(n)
				switch {
				case !ok:
				case !lit:
					t.Errorf("%s: %s reads a variable named by no literal", fset.Position(n.Pos()), fn)
				default:
					f(fset.Position(n.Pos()), fn, name)
				}
				return true
			})
		}
	}
}

// envRead reports whether n is an os.Getenv or os.LookupEnv call and, when
// its argument is a string literal (lit), the variable it reads.
func envRead(n ast.Node) (name string, ok, lit bool) {
	call, isCall := n.(*ast.CallExpr)
	if !isCall || len(call.Args) != 1 {
		return "", false, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || (sel.Sel.Name != "Getenv" && sel.Sel.Name != "LookupEnv") {
		return "", false, false
	}
	if pkg, isIdent := sel.X.(*ast.Ident); !isIdent || pkg.Name != "os" {
		return "", false, false
	}
	bl, isLit := call.Args[0].(*ast.BasicLit)
	if !isLit || bl.Kind != token.STRING {
		return "", true, false
	}
	name, err := strconv.Unquote(bl.Value)
	return name, true, err == nil
}

// TestNoTransportProbes: what a transport knows of its peers reaches the
// device through one description on the Transport interface, never through
// an optional-interface probe — a wrapper that embeds a Transport silently
// drops every method a probe looks for. The scan is syntactic: a type
// assertion (or a type switch case) to an interface literal in a non-test
// file of the packages that sit on a transport.
func TestNoTransportProbes(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{"internal/device", "internal/fault", "internal/core"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				var probes []ast.Expr
				switch n := n.(type) {
				case *ast.TypeAssertExpr:
					probes = []ast.Expr{n.Type}
				case *ast.CaseClause:
					probes = n.List
				}
				for _, e := range probes {
					if _, ok := e.(*ast.InterfaceType); ok {
						t.Errorf("%s: type assertion to an interface literal probes for an optional method", fset.Position(e.Pos()))
					}
				}
				return true
			})
		}
	}
}

func reportMethodCalls(t *testing.T, fset *token.FileSet, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Method" || sel.Sel.Name == "MethodByName") {
			t.Errorf("%s: reflect %s call keeps every exported method in the binary", fset.Position(call.Pos()), sel.Sel.Name)
		}
		return true
	})
}
