package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Loader parses and type-checks the production (non-_test.go) files of
// the enclosing module's packages using only the standard library:
// module-internal imports resolve against the module tree, everything
// else through the stdlib source importer (the build environment is
// offline, so export data may be absent).
type Loader struct {
	// Fset is shared by every file the loader touches.
	Fset *token.FileSet
	// ModuleRoot is the directory containing go.mod.
	ModuleRoot string
	// ModulePath is the module path declared in go.mod.
	ModulePath string

	std     types.Importer
	pkgs    map[string]*Package // import path -> loaded package
	loading map[string]bool     // cycle guard
}

// NewLoader locates the enclosing module starting from dir.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, err := findModuleRoot(abs)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := &Loader{
		Fset:       token.NewFileSet(),
		ModuleRoot: root,
		ModulePath: modPath,
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}
	l.std = importer.ForCompiler(l.Fset, "source", nil)
	return l, nil
}

func findModuleRoot(dir string) (string, error) {
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		d = parent
	}
}

var moduleRe = regexp.MustCompile(`(?m)^module\s+(\S+)`)

func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	m := moduleRe.FindSubmatch(b)
	if m == nil {
		return "", fmt.Errorf("analysis: no module directive in %s", gomod)
	}
	return string(m[1]), nil
}

// Load resolves package patterns relative to the module root. A pattern
// ending in "/..." walks the subtree; anything else names one directory.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			base := strings.TrimSuffix(rest, "/")
			if base == "" || base == "." {
				base = l.ModuleRoot
			} else {
				base = filepath.Join(l.ModuleRoot, base)
			}
			if err := walkPackageDirs(base, add); err != nil {
				return nil, err
			}
			continue
		}
		add(filepath.Join(l.ModuleRoot, pat))
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("analysis: no packages matched %v", patterns)
	}
	sort.Strings(dirs)
	var out []*Package
	for _, dir := range dirs {
		path, err := l.pathForDir(dir)
		if err != nil {
			return nil, err
		}
		pkg, err := l.load(dir, path)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// walkPackageDirs visits every directory under base holding at least one
// non-test .go file, skipping testdata, hidden and underscore dirs.
func walkPackageDirs(base string, visit func(string)) error {
	return filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			gos, err := filepath.Glob(filepath.Join(path, "*.go"))
			if err != nil {
				return err
			}
			for _, g := range gos {
				if !strings.HasSuffix(g, "_test.go") {
					visit(path)
					break
				}
			}
		}
		return nil
	})
}

func (l *Loader) pathForDir(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, l.ModuleRoot)
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// load parses and type-checks one package directory, memoized by import
// path because it doubles as the import target for dependents.
func (l *Loader) load(dir, path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: importerFunc(l.importPkg),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, typeErrs[0])
	}
	pkg := &Package{
		Path:    path,
		Fset:    l.Fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
		ignores: buildIgnoreIndex(l.Fset, files),
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// parseDir parses the directory's non-test .go files.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// importPkg resolves an import path: module-internal packages load from
// the module tree, the rest from stdlib source.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		pkg, err := l.load(filepath.Join(l.ModuleRoot, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
