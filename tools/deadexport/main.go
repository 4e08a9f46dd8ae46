// Command deadexport fails when a package-level function or method of the
// module, exported or not, has no reference from non-test code and no line
// in tools/deadexport/allowlist.txt. Every package here sits under internal/
// or is a command, so such a function serves no shipped path: it is dead, or
// a second path beside the one production runs.
//
// Run it from the module root; it takes no flags and reads nothing but the
// source tree and the standard library's sources:
//
//	go run ./tools/deadexport
//
// A reference is any use of the function outside its own body in a file
// that is not a _test.go file, in any package of the tree: the module's own
// commands and examples, and nested modules such as perfbench/ (which are
// read for their references only; their own functions are not checked).
// Each package is type-checked once with the host's default build tags and
// once more for every custom tag the tree's //go:build lines name, so a
// reference from a tagged file counts. A method also counts as referenced
// when it can be reached by dynamic dispatch: its type satisfies an
// interface from outside the tree that has the method (error, fmt.Stringer,
// slog.Handler), or an interface declared in the tree whose method non-test
// code calls. Satisfying a tree interface whose method only tests call
// keeps nothing alive.
//
// Each allowlist line is "<dir>.<Func>" or "<dir>.<Type>.<Method>", with dir
// relative to the module root, followed by the reason the function is kept.
// A line with no reason, a repeated line, and a line naming a function that
// now has a reference or no longer exists all fail the check too.
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	problems, err := check(".", filepath.Join("tools", "deadexport", "allowlist.txt"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadexport:", err)
		os.Exit(2)
	}
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		fmt.Printf("deadexport: %d problem(s); delete the function, or give it a reasoned line in the allowlist\n", len(problems))
		os.Exit(1)
	}
}

// pkgDir is one directory of non-test Go files.
type pkgDir struct {
	abs    string
	rel    string // slash-separated, relative to the tree root; "." for the root
	path   string // import path
	nested bool   // in a nested module: read for references only
	files  []*ast.File
	names  []string // base names, parallel to files
}

// decl is one checked function declaration. Its position is the same in
// every build configuration, because all configurations share the parse.
type decl struct {
	key  string // allowlist form: <dir>.<Func> or <dir>.<Type>.<Method>
	body [2]token.Pos
	used bool
}

// check returns the problems found under root, sorted: unreferenced
// functions missing from the allowlist, and allowlist lines that are
// malformed or stale.
func check(root, allowlist string) ([]string, error) {
	fset := token.NewFileSet()
	dirs, err := scan(fset, root)
	if err != nil {
		return nil, err
	}
	decls := map[token.Pos]*decl{}
	std := importer.ForCompiler(fset, "source", nil)
	for _, tags := range configs(dirs) {
		if err := typeCheck(fset, std, dirs, tags, decls); err != nil {
			return nil, err
		}
	}

	dead := map[string][]token.Position{}
	for pos, d := range decls {
		if !d.used {
			dead[d.key] = append(dead[d.key], fset.Position(pos))
		}
	}
	allowed, problems, err := readAllowlist(allowlist)
	if err != nil {
		return nil, err
	}
	for key, line := range allowed {
		if _, ok := dead[key]; !ok {
			problems = append(problems, fmt.Sprintf("%s:%d: %s has a non-test reference or no longer exists; delete the line", allowlist, line, key))
		}
	}
	for key, positions := range dead {
		if _, ok := allowed[key]; ok {
			continue
		}
		for _, p := range positions {
			rel, err := filepath.Rel(root, p.Filename)
			if err != nil {
				rel = p.Filename
			}
			problems = append(problems, fmt.Sprintf("%s:%d: %s has no non-test reference", filepath.ToSlash(rel), p.Line, key))
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// scan parses every non-test .go file under root, skipping testdata, vendor
// and dot or underscore directories as the go command does. A directory
// with its own go.mod below root starts a nested module.
func scan(fset *token.FileSet, root string) ([]*pkgDir, error) {
	rootMod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	type module struct{ dir, path string }
	mods := []module{{".", rootMod}}
	var dirs []*pkgDir
	err = filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if !e.IsDir() {
			return nil
		}
		name := e.Name()
		if rel != "." && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if rel != "." {
			if mp, err := modulePath(filepath.Join(p, "go.mod")); err == nil {
				mods = append(mods, module{rel, mp})
			} else if !os.IsNotExist(err) {
				return err
			}
		}
		// The innermost module holding rel is the last one that prefixes it,
		// since WalkDir visits a module's root before anything under it.
		m := mods[0]
		for _, c := range mods[1:] {
			if rel == c.dir || strings.HasPrefix(rel, c.dir+"/") {
				m = c
			}
		}
		ip := m.path
		if rel != m.dir {
			sub := rel
			if m.dir != "." {
				sub = strings.TrimPrefix(rel, m.dir+"/")
			}
			ip += "/" + sub
		}
		d := &pkgDir{abs: p, rel: rel, path: ip, nested: m.dir != "."}
		entries, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, f := range entries {
			n := f.Name()
			if f.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
				continue
			}
			file, err := parser.ParseFile(fset, filepath.Join(p, n), nil, parser.ParseComments)
			if err != nil {
				return err
			}
			d.files = append(d.files, file)
			d.names = append(d.names, n)
		}
		if len(d.files) > 0 {
			dirs = append(dirs, d)
		}
		return nil
	})
	return dirs, err
}

func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return strings.Trim(f[1], `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// notCustom lists the tags the go command derives from the platform, the
// compiler and the toolchain, plus ignore; any other tag a //go:build line
// names is custom and gets a type-check of its own.
var notCustom = strings.Fields("unix cgo gc gccgo ignore " +
	"aix android darwin dragonfly freebsd hurd illumos ios js linux nacl netbsd openbsd plan9 solaris wasip1 windows zos " +
	"386 amd64 arm arm64 loong64 mips mips64 mips64le mipsle ppc64 ppc64le riscv64 s390x wasm")

// configs returns the build-tag sets to type-check: none, then each custom
// tag on its own.
func configs(dirs []*pkgDir) [][]string {
	skip := map[string]bool{}
	for _, t := range append(notCustom, build.Default.ReleaseTags...) {
		skip[t] = true
	}
	tags := map[string]bool{}
	for _, d := range dirs {
		for _, f := range d.files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if expr, err := constraint.Parse(c.Text); err == nil {
						tagsOf(expr, tags)
					}
				}
			}
		}
	}
	out := [][]string{nil}
	for t := range tags {
		if !skip[t] {
			out = append(out, []string{t})
		}
	}
	sort.Slice(out[1:], func(i, j int) bool { return out[1+i][0] < out[1+j][0] })
	return out
}

// tagsOf adds every tag the expression names to tags.
func tagsOf(x constraint.Expr, tags map[string]bool) {
	switch x := x.(type) {
	case *constraint.TagExpr:
		tags[x.Tag] = true
	case *constraint.NotExpr:
		tagsOf(x.X, tags)
	case *constraint.AndExpr:
		tagsOf(x.X, tags)
		tagsOf(x.Y, tags)
	case *constraint.OrExpr:
		tagsOf(x.X, tags)
		tagsOf(x.Y, tags)
	}
}

// loader type-checks the tree's packages on demand for one build
// configuration and hands every other import to the standard library's
// source importer.
type loader struct {
	fset   *token.FileSet
	std    types.Importer
	ctxt   build.Context
	byPath map[string]*pkgDir
	pkgs   map[string]*types.Package
	infos  map[*pkgDir]*types.Info
	files  map[*pkgDir][]*ast.File
}

func (l *loader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	d, ok := l.byPath[path]
	if !ok {
		return l.std.Import(path)
	}
	var files []*ast.File
	for i, f := range d.files {
		ok, err := l.ctxt.MatchFile(d.abs, d.names[i])
		if err != nil {
			return nil, err
		}
		if ok {
			files = append(files, f)
		}
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s (tags %v): %w", d.rel, l.ctxt.BuildTags, err)
	}
	l.pkgs[path] = pkg
	l.infos[d] = info
	l.files[d] = files
	return pkg, nil
}

// typeCheck type-checks every package under one tag set, adds the
// functions it declares to decls and marks those it finds referenced.
func typeCheck(fset *token.FileSet, std types.Importer, dirs []*pkgDir, tags []string, decls map[token.Pos]*decl) error {
	l := &loader{
		fset:   fset,
		std:    std,
		ctxt:   build.Default,
		byPath: map[string]*pkgDir{},
		pkgs:   map[string]*types.Package{},
		infos:  map[*pkgDir]*types.Info{},
		files:  map[*pkgDir][]*ast.File{},
	}
	l.ctxt.BuildTags = tags
	for _, d := range dirs {
		l.byPath[d.path] = d
	}
	for _, d := range dirs {
		if _, err := l.Import(d.path); err != nil {
			return err
		}
	}

	var methods []*types.Func
	for _, d := range dirs {
		if d.nested {
			continue
		}
		info := l.infos[d]
		for _, f := range l.files[d] {
			for _, fd := range f.Decls {
				fn, ok := fd.(*ast.FuncDecl)
				if !ok || !checked(fn, f.Name.Name) {
					continue
				}
				obj := info.Defs[fn.Name].(*types.Func)
				if decls[obj.Pos()] == nil {
					decls[obj.Pos()] = &decl{key: declKey(d.rel, fn), body: [2]token.Pos{fn.Pos(), fn.End()}}
				}
				if fn.Recv != nil {
					methods = append(methods, obj)
				}
			}
		}
	}

	// called holds the interface methods non-test code calls (or takes as
	// a method value), by position.
	called := map[token.Pos]bool{}
	for _, d := range dirs {
		for id, obj := range l.infos[d].Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				called[fn.Pos()] = true
			}
			dc := decls[fn.Origin().Pos()]
			if dc != nil && (id.Pos() < dc.body[0] || id.Pos() >= dc.body[1]) {
				dc.used = true
			}
		}
	}

	ifaces := interfaces(l)
	for _, m := range methods {
		dc := decls[m.Pos()]
		if dc.used {
			continue
		}
		// The pointer's method set holds the value receiver's methods too.
		recv := m.Type().(*types.Signature).Recv().Type()
		if _, ok := recv.(*types.Pointer); !ok {
			recv = types.NewPointer(recv)
		}
		for _, im := range ifaces[m.Name()] {
			inTree := im.method.Pkg() != nil && l.byPath[im.method.Pkg().Path()] != nil
			if (!inTree || called[im.method.Pos()]) && types.Implements(recv, im.iface) {
				dc.used = true
				break
			}
		}
	}
	return nil
}

// checked reports whether a declaration is subject to the check: every
// function but blank ones, init, and a command's main.
func checked(fn *ast.FuncDecl, pkgName string) bool {
	switch n := fn.Name.Name; {
	case n == "_" || (n == "init" && fn.Recv == nil):
		return false
	case n == "main" && fn.Recv == nil && pkgName == "main":
		return false
	}
	return true
}

func declKey(dir string, fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return dir + "." + fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	return dir + "." + t.(*ast.Ident).Name + "." + fn.Name.Name
}

// ifaceMethod is one method of an interface.
type ifaceMethod struct {
	iface  *types.Interface
	method *types.Func
}

// interfaces indexes, by method name, every interface method that the
// loaded packages can see: those of package-level interfaces of the tree and
// of every package it imports, of interface literals in the tree, and of
// error.
func interfaces(l *loader) map[string][]ifaceMethod {
	out := map[string][]ifaceMethod{}
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] || it.NumMethods() == 0 || !it.IsMethodSet() {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			out[m.Name()] = append(out[m.Name()], ifaceMethod{it, m})
		}
	}
	add(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range l.pkgs {
		walk(p)
	}
	for _, info := range l.infos {
		for _, tv := range info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return out
}

// readAllowlist returns the allowlisted keys with their line numbers, and
// the problems of lines with no reason or a repeated key.
func readAllowlist(path string) (map[string]int, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	allowed := map[string]int{}
	var problems []string
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key := strings.Fields(line)[0]
		switch {
		case strings.TrimSpace(line[len(key):]) == "":
			problems = append(problems, fmt.Sprintf("%s:%d: %s has no reason", path, n, key))
		case allowed[key] != 0:
			problems = append(problems, fmt.Sprintf("%s:%d: %s repeats line %d", path, n, key, allowed[key]))
		default:
			allowed[key] = n
		}
	}
	return allowed, problems, sc.Err()
}
