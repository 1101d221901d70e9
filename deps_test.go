package mpj

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
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

// TestOneConfigPath: a job's tuning is resolved once, in the process that
// launches it, and travels in every slave's spec; no other code reads an
// MPJ_* variable. The scan is syntactic: an os.Getenv or os.LookupEnv call
// with an "MPJ_" literal in a non-test file outside benchmark/ (which
// clears the variables to isolate its runs) must fall under one entry
// below, a function that may read any of them or one variable read
// anywhere.
func TestOneConfigPath(t *testing.T) {
	allowed := map[string]string{
		"func resolveTuning": "the resolver: a job's tuning, read once where the job is launched",
		"func IsSlave":       "a spawned process knows itself by its encoded spec",
		"func SlaveMain":     "the spec decoder: a process slave's whole spec is one variable",
		"MPJ_PROF_ADDR":      "the address of a process's /debug/vars endpoint: deployment, not tuning",
		"MPJ_FAULT":          "RunLocal's fault-injection harness, set per test process",
	}
	sites := 0
	fset, files := moduleSources(t)
	for path, f := range files {
		if strings.HasPrefix(filepath.ToSlash(path), "benchmark/") {
			continue
		}
		for _, decl := range f.Decls {
			fn := ""
			if d, ok := decl.(*ast.FuncDecl); ok {
				fn = "func " + d.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				name, ok := envRead(n)
				if !ok {
					return true
				}
				sites++
				pos := fset.Position(n.Pos())
				if why, ok := allowed[fn]; ok {
					t.Logf("%s: %s reads %s: %s", pos, fn, name, why)
				} else if why, ok := allowed[name]; ok {
					t.Logf("%s: reads %s: %s", pos, name, why)
				} else {
					t.Errorf("%s: %s reads %s: a job's tuning belongs in the resolver and travels in the slave spec", pos, fn, name)
				}
				return true
			})
		}
	}
	t.Logf("%d MPJ_* reads", sites)
}

// envRead reports the variable an os.Getenv or os.LookupEnv call reads,
// when it is an "MPJ_" literal.
func envRead(n ast.Node) (string, bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Getenv" && sel.Sel.Name != "LookupEnv") {
		return "", false
	}
	if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "os" {
		return "", false
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	name, err := strconv.Unquote(lit.Value)
	if err != nil || !strings.HasPrefix(name, "MPJ_") {
		return "", false
	}
	return name, true
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
