package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one type-checked package under analysis. Path is the
// import path the rules key on: fixture packages loaded with LoadDir
// can claim any virtual path (e.g. "tpcds/internal/exec") so analyzer
// tests exercise path-conditional rules without living in the real tree.
type Package struct {
	Path  string
	Name  string
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info
	Types *types.Package

	// nilcheck and errcontract share one nilness pass per package (see
	// nilness.go): its findings by rule.
	nilDiags map[string][]Diagnostic
}

// Loader parses and type-checks packages using only the standard
// library: go/parser for syntax and go/types with the stdlib source
// importer for semantics — no x/tools dependency. One Loader shares a
// FileSet and the (expensive) standard-library type information across
// every package it loads.
type Loader struct {
	Fset    *token.FileSet
	root    string // module root directory
	modPath string // module path from go.mod
	std     types.ImporterFrom
	pkgs    map[string]*Package
	seen    map[string]bool // import cycle guard
}

// NewLoader returns a loader rooted at the directory containing go.mod.
// Pass any directory inside the module; the loader walks upward to find
// the module root.
func NewLoader(dir string) (*Loader, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		root:    root,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:    map[string]*Package{},
		seen:    map[string]bool{},
	}, nil
}

func findModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// The shared-module cache: type-checking the whole module from source
// (including the standard-library packages it imports) costs seconds,
// and every consumer — the analyzer layer, the fixture tests, the CLI —
// wants the same result. Module loads once per module root per process
// and hands the same Loader and package list to everyone; the Loader's
// own per-package cache then also serves LoadDir fixture loads, which
// reuse the already-checked stdlib and module imports.
var (
	sharedMu      sync.Mutex
	sharedLoaders = map[string]*Loader{}
	sharedPkgs    = map[string][]*Package{}
)

// Module returns the shared type-checked module containing dir: the
// Loader (for further LoadDir calls against the same cache) and every
// package of the module sorted by import path. Concurrent and repeated
// calls share one load. BenchmarkLintModule quantifies the saving.
func Module(dir string) (*Loader, []*Package, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, nil, err
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if l, ok := sharedLoaders[root]; ok {
		return l, sharedPkgs[root], nil
	}
	l, err := NewLoader(root)
	if err != nil {
		return nil, nil, err
	}
	pkgs, err := l.LoadModule()
	if err != nil {
		return nil, nil, err
	}
	sharedLoaders[root] = l
	sharedPkgs[root] = pkgs
	return l, pkgs, nil
}

// LoadModule loads every package of the module (skipping testdata and
// hidden directories; test files are not loaded — every rule exempts
// them anyway). Packages come back sorted by import path.
func (l *Loader) LoadModule() ([]*Package, error) {
	var paths []string
	err := filepath.WalkDir(l.root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if len(buildableFiles(p)) == 0 {
			return nil
		}
		rel, err := filepath.Rel(l.root, p)
		if err != nil {
			return err
		}
		ip := l.modPath
		if rel != "." {
			ip = l.modPath + "/" + filepath.ToSlash(rel)
		}
		paths = append(paths, ip)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(paths))
	for _, ip := range paths {
		pkg, err := l.load(ip)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// buildableFiles lists the non-test .go files of a directory.
func buildableFiles(dir string) []string {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		out = append(out, filepath.Join(dir, n))
	}
	sort.Strings(out)
	return out
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom resolves module-internal imports by type-checking them
// from source and delegates everything else to the standard library's
// source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// load type-checks one module package (cached).
func (l *Loader) load(importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.seen[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.seen[importPath] = true
	defer delete(l.seen, importPath)

	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, l.modPath), "/")
	dir := filepath.Join(l.root, filepath.FromSlash(rel))
	files := buildableFiles(dir)
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	pkg, err := l.check(importPath, dir, files)
	if err != nil {
		return nil, err
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// LoadDir type-checks the files of one directory as a standalone
// package claiming the given virtual import path. Used by the analyzer
// golden tests: fixture packages under testdata import only the
// standard library but pose as repo packages so path-conditional rules
// fire.
func (l *Loader) LoadDir(dir, virtualPath string) (*Package, error) {
	files := buildableFiles(dir)
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	return l.check(virtualPath, dir, files)
}

func (l *Loader) check(importPath, dir string, files []string) (*Package, error) {
	var asts []*ast.File
	for _, fn := range files {
		display := fn
		if rel, err := filepath.Rel(l.root, fn); err == nil && !strings.HasPrefix(rel, "..") {
			display = filepath.ToSlash(rel)
		} else {
			display = filepath.Base(fn)
		}
		src, err := os.ReadFile(fn)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.Fset, display, src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		asts = append(asts, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.Fset, asts, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	return &Package{
		Path:  importPath,
		Name:  tpkg.Name(),
		Fset:  l.Fset,
		Files: asts,
		Info:  info,
		Types: tpkg,
	}, nil
}
