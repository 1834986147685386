package lockdiscipline

import (
	"encoding/json"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
	"testing"

	"logr/internal/analysis"
)

// TestBlockingKeysResolve loads every logr package that blockingFuncs
// names from its compiler export data — what the analyzer sees of a
// callee in another package — and requires each logr key to be the
// FuncKey of a declared function or method. A key that names nothing
// never matches a call, so the check it stands for silently stops.
func TestBlockingKeysResolve(t *testing.T) {
	pkgs := map[string]bool{}
	for key := range blockingFuncs {
		if path := keyPackage(key); strings.HasPrefix(path, "logr/") || path == "logr" {
			pkgs[path] = true
		}
	}
	paths := make([]string, 0, len(pkgs))
	for p := range pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	cmd := exec.Command("go", append([]string{"list", "-export", "-deps", "-json=ImportPath,Export"}, paths...)...)
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOPROXY=off", "GOFLAGS=-mod=mod")
	out, err := cmd.Output()
	if err != nil {
		msg := ""
		if ee, ok := err.(*exec.ExitError); ok {
			msg = string(ee.Stderr)
		}
		t.Fatalf("go list: %v\n%s", err, msg)
	}
	exports := map[string]string{}
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for dec.More() {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		exports[p.ImportPath] = p.Export
	}
	imp := importer.ForCompiler(token.NewFileSet(), "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})

	declared := map[string]bool{}
	for _, path := range paths {
		pkg, err := imp.Import(path)
		if err != nil {
			t.Fatalf("import %s: %v", path, err)
		}
		for _, name := range pkg.Scope().Names() {
			switch obj := pkg.Scope().Lookup(name).(type) {
			case *types.Func:
				declared[analysis.FuncKey(obj)] = true
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					declared[analysis.FuncKey(named.Method(i))] = true
				}
				if iface, ok := named.Underlying().(*types.Interface); ok {
					for i := 0; i < iface.NumMethods(); i++ {
						declared[analysis.FuncKey(iface.Method(i))] = true
					}
				}
			}
		}
	}
	for key := range blockingFuncs {
		if pkgs[keyPackage(key)] && !declared[key] {
			t.Errorf("blockingFuncs key %q names no declared function or method", key)
		}
	}
}

// keyPackage returns the import path of a FuncKey: "pkg.Name",
// "(pkg.T).M" or "(*pkg.T).M".
func keyPackage(key string) string {
	if strings.HasPrefix(key, "(") {
		key = strings.TrimPrefix(key[1:strings.Index(key, ")")], "*")
	}
	return key[:strings.LastIndex(key, ".")]
}
