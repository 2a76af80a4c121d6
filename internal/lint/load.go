package lint

// Package loading without golang.org/x/tools/go/packages: `go list -export
// -deps -json` resolves the build graph and compiles export data, the target
// packages are parsed from source, and go/types checks them against the
// export data of their dependencies via go/importer's gc lookup hook. This
// is the classic pre-x/tools loading recipe and needs nothing beyond the
// standard library and the go tool already present in the build image.

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
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	PkgPath   string
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listedPackage is the subset of `go list -json` output the loader consumes.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Standard   bool
	Export     string
	ImportMap  map[string]string
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// goList runs `go list -export -deps -json` over patterns and decodes the
// JSON stream.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []*listedPackage
	for {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, nil
}

// exportLookup builds the importer lookup function from listed export data.
// importMap translates source-level import paths (vendoring, module major
// versions) to resolved ones before the export file is consulted.
func exportLookup(exports map[string]string, importMap map[string]string) func(string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	}
}

func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// Load resolves patterns (e.g. "./...") relative to dir and returns the
// type-checked non-test packages of the current module. Test files are not
// analyzed: they legitimately hold exact float assertions and short-lived
// errors, and the analyzers target the production hazard zones.
func Load(dir string, patterns []string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	importMap := make(map[string]string)
	for _, lp := range listed {
		exports[lp.ImportPath] = lp.Export
		for from, to := range lp.ImportMap {
			importMap[from] = to
		}
	}
	// -deps lists dependencies first; keep only the module's own packages
	// as analysis targets.
	var targets []*listedPackage
	for _, lp := range listed {
		if lp.Standard || lp.Module == nil || len(lp.GoFiles) == 0 {
			continue
		}
		targets = append(targets, lp)
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", exportLookup(exports, importMap))
	var pkgs []*Package
	for _, lp := range targets {
		files := make([]*ast.File, 0, len(lp.GoFiles))
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("lint: parsing %s: %v", name, err)
			}
			files = append(files, f)
		}
		info := newTypesInfo()
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %v", lp.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			PkgPath:   lp.ImportPath,
			Fset:      fset,
			Syntax:    files,
			Types:     tpkg,
			TypesInfo: info,
		})
	}
	return pkgs, nil
}

// LoadDir type-checks a single directory of Go files outside the module's
// package graph — the fixture loader behind the analyzer tests. Imports are
// resolved exactly as in Load, by asking the go tool for export data of
// whatever the fixture files import.
func LoadDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing fixture %s: %v", e.Name(), err)
		}
		files = append(files, f)
		names = append(names, e.Name())
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	// Resolve every import of the fixture via export data.
	seen := map[string]bool{}
	var imports []string
	for _, f := range files {
		for _, spec := range f.Imports {
			path := strings.Trim(spec.Path.Value, `"`)
			if path != "unsafe" && !seen[path] {
				seen[path] = true
				imports = append(imports, path)
			}
		}
	}
	exports := make(map[string]string)
	importMap := make(map[string]string)
	if len(imports) > 0 {
		listed, err := goList(dir, imports)
		if err != nil {
			return nil, err
		}
		for _, lp := range listed {
			exports[lp.ImportPath] = lp.Export
			for from, to := range lp.ImportMap {
				importMap[from] = to
			}
		}
	}
	imp := importer.ForCompiler(fset, "gc", exportLookup(exports, importMap))
	info := newTypesInfo()
	// The fixture's import path embeds the directory name so analyzers that
	// scope by package path (e.g. seedrand's exemption for .../xrand) see it.
	pkgPath := "kgedist/fixture/" + filepath.Base(dir)
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking fixture %s (%s): %v", dir, strings.Join(names, ","), err)
	}
	return &Package{
		PkgPath:   pkgPath,
		Fset:      fset,
		Syntax:    files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}
