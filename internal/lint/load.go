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
	"runtime"
	"strings"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	PkgPath   string
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listPackage is the subset of `go list -json` output the loader reads.
type listPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	DepOnly    bool
	Standard   bool
	Module     *struct{ GoVersion string }
	Error      *struct{ Err string }
}

// Load lists patterns in dir with the go command, type-checks every matched
// package of the surrounding module from source (dependencies are imported
// from the compiler export data `go list -export` leaves in the build
// cache), and returns them ready for analysis. It is the package loader
// behind both emergelint and the fixture test harness — a stdlib-only
// stand-in for go/packages. Only a package's GoFiles are loaded, so no
// analyzer ever sees a _test.go file: the contracts bind shipped code, and
// tests exercise wall clocks and throwaway buffers freely.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-export", "-json", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	// A parent `go test` run sets GOFLAGS and friends for its own purposes;
	// keep the child honest and module-aware but otherwise inherit.
	cmd.Env = append(os.Environ(), "GOWORK=off")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := map[string]string{} // package path -> export data file
	var targets []*listPackage
	dec := json.NewDecoder(&stdout)
	for {
		lp := new(listPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if !lp.DepOnly && !lp.Standard && len(lp.CgoFiles) == 0 {
			targets = append(targets, lp)
		}
	}

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var out []*Package
	for _, lp := range targets {
		pkg, err := typecheck(fset, imp, lp)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// exportImporter returns a types.Importer that resolves imports through the
// compiler export data files recorded by `go list -export`.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// typecheck parses and type-checks one listed package from source.
func typecheck(fset *token.FileSet, imp types.Importer, lp *listPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		full := name
		if !filepath.IsAbs(full) {
			full = filepath.Join(lp.Dir, name)
		}
		f, err := parser.ParseFile(fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	goVersion := ""
	if lp.Module != nil && lp.Module.GoVersion != "" {
		goVersion = "go" + lp.Module.GoVersion
	}
	conf := &types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor("gc", runtime.GOARCH),
		GoVersion: goVersion,
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", lp.ImportPath, err)
	}
	return &Package{
		PkgPath:   lp.ImportPath,
		Fset:      fset,
		Syntax:    files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}
