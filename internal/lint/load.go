package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// listedPackage is the subset of `go list -export -deps -json` output
// the loader needs. Test files are deliberately excluded: the analyzers
// guard production invariants, and test helpers legitimately use wall
// clocks and environment variables.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	// Export is the compiler's export-data file for the package; DepOnly
	// marks packages listed only as dependencies of the patterns.
	Export  string
	DepOnly bool
}

// Load expands the given `go list` patterns (e.g. "./..."), parses each
// matched package's non-test Go files, and type-checks them. Imports
// resolve through the export data `go list -export` has the go command
// write (from its build cache, so a warm run compiles nothing), not by
// type-checking every dependency from source again. It is the only place
// the framework shells out; everything downstream is pure go/ast +
// go/types.
func Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}

	var listed []listedPackage
	exports := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && len(p.GoFiles) > 0 {
			listed = append(listed, p)
		}
	}

	fset := token.NewFileSet()
	// One shared export-data importer: it memoizes imported packages
	// across all packages in the run.
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	})

	var pkgs []*Package
	for _, lp := range listed {
		var files []*ast.File
		for _, name := range lp.GoFiles {
			path := filepath.Join(lp.Dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("lint: %v", err)
			}
			files = append(files, f)
		}
		pkg, err := Check(lp.ImportPath, fset, files, imp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// Check type-checks one parsed package and wraps it as a *Package. The
// module always compiles, so any type error is a tool failure, not a
// finding.
func Check(importPath string, fset *token.FileSet, files []*ast.File, imp types.Importer) (*Package, error) {
	var terrs []error
	conf := &types.Config{
		Importer: imp,
		Error:    func(err error) { terrs = append(terrs, err) },
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	tpkg, _ := conf.Check(importPath, fset, files, info)
	if len(terrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %v (and %d more)", importPath, terrs[0], len(terrs)-1)
	}
	return &Package{
		Path:  importPath,
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}
