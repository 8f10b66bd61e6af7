package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestEveryExportedNameHasAnOutsideReader is the surface census: an
// exported top-level name of an internal package must be named by code in
// another package (other packages and their tests, cmd/, examples/,
// benchmark/), or appear in the signature of such a name — a function's
// parameters and results, a type's exported fields and exported methods, a
// value's declared type. Anything else is only read inside its own package
// and should be unexported, so the surface cannot grow back unnoticed.
func TestEveryExportedNameHasAnOutsideReader(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	c, err := takeCensus(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.decls) == 0 {
		t.Fatal("census found no internal packages")
	}
	if unread := c.unread(); len(unread) > 0 {
		t.Errorf("%d exported names have no reader outside their package; unexport them:\n\t%s",
			len(unread), strings.Join(unread, "\n\t"))
	}
}

// census holds, per internal package (keyed by import path), the
// declarations of its exported top-level names and their exported methods,
// and the names other packages refer to.
type census struct {
	decls   map[string]map[string][]ast.Node // pkg -> name -> declaring nodes
	methods map[string]map[string][]*ast.FuncDecl
	used    map[string]map[string]bool
}

// takeCensus parses every Go file of the module at root, tests included;
// benchmark/ is a nested module under it and is walked as well.
func takeCensus(root string) (*census, error) {
	c := &census{
		decls:   map[string]map[string][]ast.Node{},
		methods: map[string]map[string][]*ast.FuncDecl{},
		used:    map[string]map[string]bool{},
	}
	type parsed struct {
		pkg  string
		test bool
		file *ast.File
	}
	var files []parsed
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "out" || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := "harmony"
		if rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		files = append(files, parsed{pkg, strings.HasSuffix(name, "_test.go"), f})
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range files {
		if !p.test && strings.Contains(p.pkg, "/internal/") {
			c.declare(p.pkg, p.file)
		}
	}
	for _, p := range files {
		c.scanReferences(p.pkg, p.file)
	}
	c.closeOverSignatures()
	return c, nil
}

func (c *census) declare(pkg string, f *ast.File) {
	if c.decls[pkg] == nil {
		c.decls[pkg] = map[string][]ast.Node{}
		c.methods[pkg] = map[string][]*ast.FuncDecl{}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				c.decls[pkg][d.Name.Name] = append(c.decls[pkg][d.Name.Name], d.Type)
				continue
			}
			if recv := receiverName(d.Recv.List[0].Type); recv != "" {
				c.methods[pkg][recv] = append(c.methods[pkg][recv], d)
			}
		case *ast.GenDecl:
			var typ ast.Expr // a const spec without a type repeats the previous one
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						c.decls[pkg][s.Name.Name] = append(c.decls[pkg][s.Name.Name], s)
					}
				case *ast.ValueSpec:
					if s.Type != nil || d.Tok != token.CONST {
						typ = s.Type
					}
					for _, n := range s.Names {
						if !n.IsExported() {
							continue
						}
						var node ast.Node = &ast.BadExpr{}
						if typ != nil {
							node = typ
						}
						c.decls[pkg][n.Name] = append(c.decls[pkg][n.Name], node)
					}
				}
			}
		}
	}
}

// receiverName returns the base type name of a method receiver.
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// scanReferences marks every pkg.Name selector in f that names another
// internal package.
func (c *census) scanReferences(pkg string, f *ast.File) {
	imports := map[string]string{}
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil || !strings.Contains(path, "/internal/") || path == pkg {
			continue
		}
		local := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			local = imp.Name.Name
		}
		imports[local] = path
	}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok {
			if path, ok := imports[id.Name]; ok {
				c.mark(path, sel.Sel.Name)
			}
		}
		return true
	})
}

func (c *census) mark(pkg, name string) {
	if c.used[pkg] == nil {
		c.used[pkg] = map[string]bool{}
	}
	c.used[pkg][name] = true
}

// closeOverSignatures marks the names a used name's signature carries,
// until nothing new is marked.
func (c *census) closeOverSignatures() {
	for changed := true; changed; {
		changed = false
		for pkg, names := range c.decls {
			for name := range c.used[pkg] {
				var nodes []ast.Node
				nodes = append(nodes, names[name]...)
				for _, m := range c.methods[pkg][name] {
					nodes = append(nodes, m.Type)
				}
				for _, n := range nodes {
					for _, ref := range signatureIdents(n) {
						if _, ok := names[ref]; ok && !c.used[pkg][ref] {
							c.mark(pkg, ref)
							changed = true
						}
					}
				}
			}
		}
	}
}

// signatureIdents lists the identifiers in a declaration's visible
// signature: a struct's unexported fields and an interface's unexported
// methods are not part of it.
func signatureIdents(n ast.Node) []string {
	var out []string
	hidden := map[*ast.Field]bool{}
	hide := func(fields *ast.FieldList) {
		for _, f := range fields.List {
			if len(f.Names) > 0 && !f.Names[0].IsExported() {
				hidden[f] = true
			}
		}
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.StructType:
			hide(x.Fields)
		case *ast.InterfaceType:
			hide(x.Methods)
		case *ast.Field:
			return !hidden[x]
		case *ast.SelectorExpr:
			return false // a name of another package
		case *ast.Ident:
			out = append(out, x.Name)
		}
		return true
	})
	return out
}

// unread returns "pkg.Name" for every exported top-level name no other
// package reads, sorted.
func (c *census) unread() []string {
	var out []string
	for pkg, names := range c.decls {
		for name := range names {
			if !c.used[pkg][name] {
				out = append(out, strings.TrimPrefix(pkg, "harmony/")+"."+name)
			}
		}
	}
	sort.Strings(out)
	return out
}
