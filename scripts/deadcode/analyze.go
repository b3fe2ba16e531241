package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one identifier nothing uses outside its own package's tests.
type Finding struct {
	Name string // pkg.Name, or pkg.Type.Method for a method
	File string // relative to the analysed root
	Line int
}

func (f Finding) String() string { return fmt.Sprintf("%s  %s:%d", f.Name, f.File, f.Line) }

// unit is one package directory: its non-test files, its in-package test
// files and its external (pkg_test) test files.
type unit struct {
	dir, path    string
	files, tests []*ast.File
	xtests       []*ast.File
	pkg, testPkg *types.Package
	info         *types.Info
	checking, ok bool
}

type loader struct {
	root  string
	fset  *token.FileSet
	std   types.ImporterFrom
	units map[string]*unit
	uses  map[token.Pos][]token.Pos // declaring position → use positions
	errs  []error
}

// span is a source range whose uses of a candidate do not count: the
// candidate's own declaration, and for a type its methods too.
type span struct{ from, to token.Pos }

type candidate struct {
	obj   types.Object
	name  string
	dir   string
	spans []span
}

// Analyze loads every package under root (the module there and any module
// nested below it, such as bench/) and returns the identifiers declared in
// non-test files under root/internal and root/cmd that nothing uses
// outside their own package's _test.go files, sorted by position.
func Analyze(root string) ([]Finding, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	l := &loader{
		root:  root,
		fset:  token.NewFileSet(),
		units: map[string]*unit{},
		uses:  map[token.Pos][]token.Pos{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	if err := l.load(); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(l.units))
	for p := range l.units {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		u := l.units[p]
		if len(u.files) > 0 {
			l.check(u)
		}
		if len(u.tests) > 0 {
			u.testPkg, _ = l.typecheck(u.path, append(append([]*ast.File{}, u.files...), u.tests...), l)
		}
		if len(u.xtests) > 0 {
			l.typecheck(u.path+"_test", u.xtests, xtestImporter{l, u})
		}
	}
	if len(l.errs) > 0 {
		msgs := make([]string, 0, 5)
		for i, e := range l.errs {
			if i == 5 {
				msgs = append(msgs, fmt.Sprintf("... and %d more", len(l.errs)-5))
				break
			}
			msgs = append(msgs, e.Error())
		}
		return nil, errors.New(strings.Join(msgs, "\n"))
	}
	return append(l.findings(paths), l.shimUses()...), nil
}

// shimDir is the package whose option layer — New, Option, Scenario and
// the With* options — is kept only because bench/ compiles against it
// (ROADMAP item 17 deletes it). Everything else builds a Config literal.
const shimDir = "internal/experiment"

// shimUses returns every use of shimDir's option layer outside bench/ and
// the files that declare and test it (shimDir/scenario*.go), so a second
// front door does not grow back.
func (l *loader) shimUses() []Finding {
	var u *unit
	for _, c := range l.units {
		if c.dir == filepath.Join(l.root, shimDir) {
			u = c
		}
	}
	if u == nil || u.pkg == nil {
		return nil
	}
	var out []Finding
	seen := map[token.Pos]bool{} // a package's test build re-checks its non-test files
	for _, name := range u.pkg.Scope().Names() {
		if name != "New" && name != "Option" && name != "Scenario" && !strings.HasPrefix(name, "With") {
			continue
		}
		for _, at := range l.uses[u.pkg.Scope().Lookup(name).Pos()] {
			if seen[at] {
				continue
			}
			seen[at] = true
			pos := l.fset.Position(at)
			rel, _ := filepath.Rel(l.root, pos.Filename)
			rel = filepath.ToSlash(rel)
			if dir, file := path.Split(rel); strings.HasPrefix(rel, "bench/") ||
				(dir == shimDir+"/" && strings.HasPrefix(file, "scenario")) {
				continue
			}
			out = append(out, Finding{Name: path.Base(shimDir) + "." + name + " (bench/-only option shim)", File: rel, Line: pos.Line})
		}
	}
	sortFindings(out)
	return out
}

// load parses every package directory below root, skipping testdata and
// hidden directories, with build constraints applied as go build would.
func (l *loader) load() error {
	return filepath.WalkDir(l.root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != l.root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		path, err := l.importPath(dir)
		if err != nil {
			return err
		}
		u := &unit{dir: dir, path: path}
		for _, set := range []struct {
			names []string
			dst   *[]*ast.File
		}{{bp.GoFiles, &u.files}, {bp.TestGoFiles, &u.tests}, {bp.XTestGoFiles, &u.xtests}} {
			for _, name := range set.names {
				f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					return err
				}
				*set.dst = append(*set.dst, f)
			}
		}
		l.units[path] = u
		return nil
	})
}

// importPath derives dir's import path from the nearest go.mod at or above
// it (within root).
func (l *loader) importPath(dir string) (string, error) {
	for d := dir; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if mod, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					rel, _ := filepath.Rel(d, dir)
					return strings.TrimSuffix(strings.Trim(mod, `" `)+"/"+filepath.ToSlash(rel), "/."), nil
				}
			}
			return "", fmt.Errorf("%s/go.mod: no module line", d)
		}
		if d == l.root || d == filepath.Dir(d) {
			return "", fmt.Errorf("%s: no go.mod at or above it", dir)
		}
	}
}

// ImportFrom resolves the tree's own packages to their non-test checks and
// everything else from source.
func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if u := l.units[path]; u != nil {
		return l.check(u)
	}
	return l.std.ImportFrom(path, dir, mode)
}

func (l *loader) Import(path string) (*types.Package, error) { return l.ImportFrom(path, l.root, 0) }

// xtestImporter gives an external test package the in-package-test build of
// the package it tests, as go test does.
type xtestImporter struct {
	*loader
	self *unit
}

func (x xtestImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == x.self.path && x.self.testPkg != nil {
		return x.self.testPkg, nil
	}
	return x.loader.ImportFrom(path, dir, mode)
}

func (l *loader) check(u *unit) (*types.Package, error) {
	switch {
	case u.ok:
		return u.pkg, nil
	case u.checking:
		return nil, fmt.Errorf("import cycle through %s", u.path)
	}
	u.checking = true
	u.pkg, u.info = l.typecheck(u.path, u.files, l)
	u.checking, u.ok = false, true
	return u.pkg, nil
}

// typecheck checks one file set and records every use it resolves into the
// tree, keyed by the used object's declaring position so that the non-test
// and test builds of a package share keys.
func (l *loader) typecheck(path string, files []*ast.File, imp types.ImporterFrom) (*types.Package, *types.Info) {
	info := &types.Info{
		Defs:      map[*ast.Ident]types.Object{},
		Uses:      map[*ast.Ident]types.Object{},
		Instances: map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: imp, Error: func(err error) { l.errs = append(l.errs, err) }}
	pkg, _ := conf.Check(path, l.fset, files, info)
	for id, obj := range info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if obj.Pkg() != nil && obj.Pos().IsValid() {
			l.uses[obj.Pos()] = append(l.uses[obj.Pos()], id.Pos())
		}
	}
	return pkg, info
}

// findings collects the candidates under internal/ and cmd/, decides which
// are used, and returns the rest.
func (l *loader) findings(paths []string) []Finding {
	cands := map[token.Pos]*candidate{}
	var named []*types.Named
	generic := map[*types.TypeName]bool{} // the tree's generic interfaces
	for _, p := range paths {
		u := l.units[p]
		rel, _ := filepath.Rel(l.root, u.dir)
		top := strings.SplitN(filepath.ToSlash(rel), "/", 2)[0]
		if u.info == nil || (top != "internal" && top != "cmd") {
			continue
		}
		for _, n := range l.collect(u, cands) {
			if n.TypeParams().Len() == 0 {
				named = append(named, n)
			} else if types.IsInterface(n) {
				generic[n.Obj()] = true
			}
		}
	}

	used := map[token.Pos]bool{}
	for pos, c := range cands {
		used[pos] = l.usedOutsideOwnTests(c)
	}
	l.propagate(cands, named, l.instances(paths, generic), used)

	var out []Finding
	for pos, c := range cands {
		if used[pos] {
			continue
		}
		at := l.fset.Position(pos)
		rel, _ := filepath.Rel(l.root, at.Filename)
		out = append(out, Finding{Name: c.name, File: filepath.ToSlash(rel), Line: at.Line})
	}
	sortFindings(out)
	return out
}

// sortFindings orders findings by file, then line.
func sortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
}

// collect registers u's package-level declarations and the methods of its
// named interfaces as candidates, and returns its named types.
func (l *loader) collect(u *unit, cands map[token.Pos]*candidate) []*types.Named {
	prefix := filepath.Base(u.path)
	add := func(id *ast.Ident, name string, s span) *candidate {
		obj := u.info.Defs[id]
		if obj == nil || id.Name == "_" {
			return nil
		}
		c := &candidate{obj: obj, name: prefix + "." + name, dir: u.dir, spans: []span{s}}
		cands[obj.Pos()] = c
		return c
	}
	typeCands := map[string]*candidate{}
	var named []*types.Named
	var methods []*ast.FuncDecl
	for _, f := range u.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					methods = append(methods, d)
					continue
				}
				if d.Name.Name == "init" || (d.Name.Name == "main" && u.pkg.Name() == "main") {
					continue
				}
				add(d.Name, d.Name.Name, span{d.Pos(), d.End()})
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						c := add(s.Name, s.Name.Name, span{s.Pos(), s.End()})
						if c == nil {
							continue
						}
						typeCands[s.Name.Name] = c
						if n, ok := c.obj.Type().(*types.Named); ok {
							named = append(named, n)
						}
						if it, ok := s.Type.(*ast.InterfaceType); ok {
							for _, m := range it.Methods.List {
								for _, id := range m.Names {
									add(id, s.Name.Name+"."+id.Name, span{m.Pos(), m.End()})
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, id.Name, span{s.Pos(), s.End()})
						}
					}
				}
			}
		}
	}
	for _, d := range methods {
		recv := receiverName(d.Recv.List[0].Type)
		add(d.Name, recv+"."+d.Name.Name, span{d.Pos(), d.End()})
		if t := typeCands[recv]; t != nil {
			t.spans = append(t.spans, span{d.Pos(), d.End()})
		}
	}
	return named
}

// receiverName is the base type name of a method receiver: T in T, *T,
// T[K], *T[K, V].
func receiverName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return "?"
		}
	}
}

// usedOutsideOwnTests reports whether c has a use that is neither in a
// _test.go file of its own directory nor inside one of its own spans.
func (l *loader) usedOutsideOwnTests(c *candidate) bool {
next:
	for _, at := range l.uses[c.obj.Pos()] {
		file := l.fset.File(at).Name()
		if strings.HasSuffix(file, "_test.go") && filepath.Dir(file) == c.dir {
			continue
		}
		for _, s := range c.spans {
			if s.from <= at && at < s.to {
				continue next
			}
		}
		return true
	}
	return false
}

// iface is an interface whose implementations' methods may be used through
// it: one of the tree's own (its used methods count) or a standard-library
// one (all its methods count, on used types).
type iface struct {
	self *types.Named // nil for error
	it   *types.Interface
	std  bool
}

// instances returns the instantiations of the tree's generic interfaces
// that the type checker records (types.Info.Instances): written out, as in
// Getter[int], or met inside a recorded instance's fields and method
// signatures, as the field h indexed[S] of victimCore[lruState] is
// indexed[lruState]. A generic interface itself is not an interface set
// member — only concrete instantiations have implementations.
func (l *loader) instances(paths []string, generic map[*types.TypeName]bool) []*types.Named {
	var out []*types.Named
	seen := map[string]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		switch t := t.(type) {
		case *types.Named:
			if t.TypeArgs().Len() == 0 || seen[types.TypeString(t, nil)] {
				return // not an instantiation: its own are recorded where written
			}
			seen[types.TypeString(t, nil)] = true
			if generic[t.Origin().Obj()] {
				out = append(out, t)
			}
			walk(t.Underlying())
			for i := 0; i < t.NumMethods(); i++ {
				walk(t.Method(i).Type())
			}
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				walk(t.Field(i).Type())
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				walk(t.Method(i).Type())
			}
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		}
	}
	for _, p := range paths {
		if info := l.units[p].info; info != nil {
			for _, inst := range info.Instances {
				walk(inst.Type)
			}
		}
	}
	return out
}

// propagate marks a method used when an interface method it satisfies is
// used, to a fixpoint (an interface's method becomes used through a wider
// interface it satisfies). inst are the instantiated generic interfaces;
// an instantiation's methods share their positions with the generic
// declaration's, so they are used when it is.
func (l *loader) propagate(cands map[token.Pos]*candidate, named, inst []*types.Named, used map[token.Pos]bool) {
	var ifaces []iface
	for _, n := range append(named, inst...) {
		if it, ok := n.Underlying().(*types.Interface); ok {
			ifaces = append(ifaces, iface{self: n, it: it})
		}
	}
	ifaces = append(ifaces, iface{it: types.Universe.Lookup("error").Type().Underlying().(*types.Interface), std: true})
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		if l.units[p.Path()] == nil {
			for _, name := range p.Scope().Names() {
				tn, ok := p.Scope().Lookup(name).(*types.TypeName)
				if !ok || !tn.Exported() {
					continue
				}
				n, ok := tn.Type().(*types.Named)
				if !ok || n.TypeParams().Len() > 0 {
					continue
				}
				if it, ok := n.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
					ifaces = append(ifaces, iface{self: n, it: it, std: true})
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, u := range l.units {
		walk(u.pkg)
	}

	// impls[i] lists the types (T or *T) that satisfy ifaces[i].
	impls := make([][]types.Type, len(ifaces))
	for i, f := range ifaces {
		for _, n := range named {
			if n == f.self || (f.std && !used[n.Obj().Pos()]) {
				continue
			}
			var v types.Type = n
			if !types.IsInterface(n) && !types.Implements(v, f.it) {
				v = types.NewPointer(n)
			}
			if types.Implements(v, f.it) {
				impls[i] = append(impls[i], v)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i, f := range ifaces {
			for j := 0; j < f.it.NumMethods(); j++ {
				m := f.it.Method(j)
				if !f.std && !used[m.Pos()] {
					continue
				}
				for _, v := range impls[i] {
					obj, _, _ := types.LookupFieldOrMethod(v, false, m.Pkg(), m.Name())
					fn, ok := obj.(*types.Func)
					if !ok {
						continue
					}
					pos := fn.Origin().Pos()
					if cands[pos] != nil && !used[pos] {
						used[pos] = true
						changed = true
					}
				}
			}
		}
	}
}
