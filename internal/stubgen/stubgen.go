// Package stubgen generates static client stubs from Go interface
// declarations — the stub compiler of the network objects system.
//
// Given a source file containing `type Account interface { ... }`,
// Generate emits a file with an AccountStub type whose methods marshal
// their arguments at the declared parameter types (the typed fast path),
// embed the interface's fingerprint in every call (version checking), and
// a RegisterAccount function that declares the interface remote and
// installs the stub factory, so surrogates unmarshaled at Account
// positions arrive as ready-to-call stubs. A stub wraps one
// *netobjects.Ref.
//
// Stub-able interfaces must follow the remote method conventions: no
// variadic methods, no embedded interfaces, and an error as the final
// result of every method.
package stubgen

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/printer"
	"go/token"
	"strings"
)

// Options configures generation.
type Options struct {
	// Package overrides the package name of the generated file; empty
	// keeps the source file's package.
	Package string
	// RuntimeImport is the import path of the public runtime package
	// (default "netobjects").
	RuntimeImport string
}

// Generate parses src (one Go source file) and emits stub code for the
// named interface types. With no names, stubs are generated for every
// exported interface declared in the file.
func Generate(filename string, src []byte, typeNames []string, opts Options) ([]byte, error) {
	if opts.RuntimeImport == "" {
		opts.RuntimeImport = "netobjects"
	}
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("stubgen: parsing %s: %w", filename, err)
	}
	pkg := opts.Package
	if pkg == "" {
		pkg = file.Name.Name
	}

	wanted := map[string]bool{}
	for _, n := range typeNames {
		wanted[n] = true
	}
	var ifaces []*ifaceDecl
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts := spec.(*ast.TypeSpec)
			it, ok := ts.Type.(*ast.InterfaceType)
			if !ok {
				continue
			}
			name := ts.Name.Name
			if len(wanted) > 0 && !wanted[name] {
				continue
			}
			if len(wanted) == 0 && !ast.IsExported(name) {
				continue
			}
			d, err := analyzeInterface(fset, name, it)
			if err != nil {
				return nil, err
			}
			ifaces = append(ifaces, d)
			delete(wanted, name)
		}
	}
	if len(wanted) > 0 {
		var missing []string
		for n := range wanted {
			missing = append(missing, n)
		}
		return nil, fmt.Errorf("stubgen: interfaces not found in %s: %s", filename, strings.Join(missing, ", "))
	}
	if len(ifaces) == 0 {
		return nil, fmt.Errorf("stubgen: no interfaces to generate in %s", filename)
	}

	batch := map[string]bool{}
	for _, d := range ifaces {
		batch[d.name] = true
	}
	g := &generator{opts: opts, pkg: pkg, fileImports: importMap(file), batch: batch}
	return g.emit(ifaces)
}

// ifaceDecl is one analyzed interface.
type ifaceDecl struct {
	name    string
	methods []*methodDecl
}

// methodDecl is one analyzed interface method.
type methodDecl struct {
	name    string
	params  []param // declared parameters, excluding a leading context.Context
	results []param // non-error results
	hasCtx  bool    // first parameter is context.Context
	hasErr  bool
}

type param struct {
	name string
	typ  string // rendered type expression
	expr ast.Expr
}

func analyzeInterface(fset *token.FileSet, name string, it *ast.InterfaceType) (*ifaceDecl, error) {
	d := &ifaceDecl{name: name}
	for _, field := range it.Methods.List {
		ft, ok := field.Type.(*ast.FuncType)
		if !ok {
			return nil, fmt.Errorf("stubgen: %s embeds an interface; embedding is not supported", name)
		}
		if len(field.Names) == 0 {
			return nil, fmt.Errorf("stubgen: %s has an unnamed method", name)
		}
		m := &methodDecl{name: field.Names[0].Name}
		argIx := 0
		if ft.Params != nil {
			for _, p := range ft.Params.List {
				if _, ok := p.Type.(*ast.Ellipsis); ok {
					return nil, fmt.Errorf("stubgen: %s.%s is variadic; variadic methods are not supported", name, m.name)
				}
				typ, err := renderExpr(fset, p.Type)
				if err != nil {
					return nil, err
				}
				n := len(p.Names)
				if n == 0 {
					n = 1
				}
				for i := 0; i < n; i++ {
					if typ == "context.Context" {
						// A leading context never crosses the wire: the stub
						// routes it into InvokeTypedCtx and the dispatcher
						// supplies the serving context on the other side.
						if argIx != 0 || m.hasCtx {
							return nil, fmt.Errorf("stubgen: %s.%s takes context.Context outside the first position", name, m.name)
						}
						m.hasCtx = true
						continue
					}
					m.params = append(m.params, param{
						name: fmt.Sprintf("a%d", argIx),
						typ:  typ,
						expr: p.Type,
					})
					argIx++
				}
			}
		}
		var outs []param
		if ft.Results != nil {
			for _, r := range ft.Results.List {
				typ, err := renderExpr(fset, r.Type)
				if err != nil {
					return nil, err
				}
				n := len(r.Names)
				if n == 0 {
					n = 1
				}
				for i := 0; i < n; i++ {
					outs = append(outs, param{typ: typ, expr: r.Type})
				}
			}
		}
		if len(outs) == 0 || outs[len(outs)-1].typ != "error" {
			return nil, fmt.Errorf("stubgen: %s.%s must return error as its final result", name, m.name)
		}
		m.hasErr = true
		m.results = outs[:len(outs)-1]
		for i, r := range m.results {
			if r.typ == "error" {
				return nil, fmt.Errorf("stubgen: %s.%s returns error at position %d; only the final result may be an error", name, m.name, i)
			}
		}
		d.methods = append(d.methods, m)
	}
	return d, nil
}

func renderExpr(fset *token.FileSet, e ast.Expr) (string, error) {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// importMap collects the source file's imports as local-name → path.
func importMap(file *ast.File) map[string]string {
	m := make(map[string]string)
	for _, imp := range file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := ""
		if imp.Name != nil {
			name = imp.Name.Name
		} else {
			if i := strings.LastIndexByte(path, '/'); i >= 0 {
				name = path[i+1:]
			} else {
				name = path
			}
		}
		m[name] = path
	}
	return m
}

type generator struct {
	opts        Options
	pkg         string
	fileImports map[string]string
	// batch names every interface generated in this run; a pipelined
	// method whose first result is one of them gets a typed chaining hook
	// onto that interface's pipe surface.
	batch map[string]bool
}

// usedQualifiers walks the type expressions and reports which package
// qualifiers they mention, so the generated file imports exactly what it
// needs.
func usedQualifiers(ifaces []*ifaceDecl) map[string]bool {
	used := map[string]bool{}
	var visit func(e ast.Expr)
	visit = func(e ast.Expr) {
		ast.Inspect(e, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok {
					used[id.Name] = true
					return false
				}
			}
			return true
		})
	}
	for _, d := range ifaces {
		for _, m := range d.methods {
			for _, p := range m.params {
				visit(p.expr)
			}
			for _, r := range m.results {
				visit(r.expr)
			}
		}
	}
	return used
}

func (g *generator) emit(ifaces []*ifaceDecl) ([]byte, error) {
	needCtx := false
	for _, d := range ifaces {
		for _, m := range d.methods {
			if m.hasCtx {
				needCtx = true
			}
		}
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "// Code generated by stubgen; DO NOT EDIT.\n\npackage %s\n\n", g.pkg)
	b.WriteString("import (\n")
	if needCtx {
		b.WriteString("\t\"context\"\n")
	}
	b.WriteString("\t\"reflect\"\n\n")
	fmt.Fprintf(&b, "\t%q\n", g.opts.RuntimeImport)
	quals := usedQualifiers(ifaces)
	var extra []string
	for q := range quals {
		if path, ok := g.fileImports[q]; ok && path != "context" {
			extra = append(extra, path)
		}
	}
	for _, path := range extra {
		fmt.Fprintf(&b, "\t%q\n", path)
	}
	b.WriteString(")\n\n")

	for _, d := range ifaces {
		g.emitInterface(&b, d)
	}
	out, err := format.Source(b.Bytes())
	if err != nil {
		return b.Bytes(), fmt.Errorf("stubgen: generated code does not format: %w", err)
	}
	return out, nil
}

func (g *generator) emitInterface(b *bytes.Buffer, d *ifaceDecl) {
	name := d.name
	stub := name + "Stub"
	fpVar := "stub" + name + "Fingerprint"

	fmt.Fprintf(b, "// %s is the generated client stub for %s: every method\n", stub, name)
	fmt.Fprintf(b, "// performs a typed remote invocation through the wrapped reference.\n")
	fmt.Fprintf(b, "type %s struct{ ref *netobjects.Ref }\n\n", stub)
	fmt.Fprintf(b, "// New%s wraps a reference in a typed stub.\n", stub)
	fmt.Fprintf(b, "func New%s(ref *netobjects.Ref) *%s { return &%s{ref: ref} }\n\n", stub, stub, stub)
	fmt.Fprintf(b, "// NetObjRef returns the underlying reference.\n")
	fmt.Fprintf(b, "func (s *%s) NetObjRef() *netobjects.Ref { return s.ref }\n\n", stub)
	fmt.Fprintf(b, "// Release releases the underlying reference, if the stub has one.\n")
	fmt.Fprintf(b, "func (s *%s) Release() {\n", stub)
	fmt.Fprintf(b, "\tif s.ref != nil {\n\t\ts.ref.Release()\n\t}\n}\n\n")
	fmt.Fprintf(b, "var (\n")
	fmt.Fprintf(b, "\t_ %s = (*%s)(nil)\n", name, stub)
	fmt.Fprintf(b, "\t%s = netobjects.FingerprintOf[%s]()\n", fpVar, name)
	fmt.Fprintf(b, ")\n\n")
	fmt.Fprintf(b, "// Register%s declares %s remote on sp and installs the stub factory,\n", name, name)
	fmt.Fprintf(b, "// so values of %s pass by reference and surrogates arrive as stubs.\n", name)
	fmt.Fprintf(b, "func Register%s(sp *netobjects.Space) error {\n", name)
	fmt.Fprintf(b, "\treturn netobjects.RegisterRemoteInterface[%s](sp, func(r *netobjects.Ref) %s { return New%s(r) })\n", name, name, stub)
	fmt.Fprintf(b, "}\n\n")

	for _, m := range d.methods {
		g.emitMethod(b, d, m)
	}
	g.emitPipeSurface(b, d)
}

// emitPipeSurface generates the pipelined call surface of an interface:
// a <Name>Pipe facade targeting the eventual result of an earlier
// pipelined call, a typed promise per context-first method, and
// <Method>Pipe variants on both the stub (root of a chain) and the
// facade (links of a chain). Methods without a leading context are
// skipped: a pipelined issue site always has a context to bound the
// chain.
func (g *generator) emitPipeSurface(b *bytes.Buffer, d *ifaceDecl) {
	name := d.name
	stub := name + "Stub"
	facade := name + "Pipe"
	fpVar := "stub" + name + "Fingerprint"

	hasPipe := false
	for _, m := range d.methods {
		if m.hasCtx {
			hasPipe = true
		}
	}
	if !hasPipe {
		return
	}

	fmt.Fprintf(b, "// %s is the pipelined surface of %s: it targets the eventual\n", facade, name)
	fmt.Fprintf(b, "// result of an earlier pipelined call, so dependent calls are shipped\n")
	fmt.Fprintf(b, "// before their receiver resolves and a K-deep chain costs one round\n")
	fmt.Fprintf(b, "// trip.\n")
	fmt.Fprintf(b, "type %s struct{ p *netobjects.Promise }\n\n", facade)
	fmt.Fprintf(b, "// Promise returns the underlying untyped promise.\n")
	fmt.Fprintf(b, "func (f *%s) Promise() *netobjects.Promise { return f.p }\n\n", facade)

	for _, m := range d.methods {
		if !m.hasCtx {
			continue
		}
		g.emitPromiseType(b, d, m)
		g.emitPipeMethod(b, d, m, stub, fpVar, "s", "s.ref")
		g.emitPipeMethod(b, d, m, facade, fpVar, "f", "f.p")
	}
}

// emitPromiseType generates the typed promise for one pipelined method.
func (g *generator) emitPromiseType(b *bytes.Buffer, d *ifaceDecl, m *methodDecl) {
	prom := d.name + m.name + "Promise"
	fmt.Fprintf(b, "// %s is the typed promise of a pipelined %s.%s.\n", prom, d.name, m.name)
	fmt.Fprintf(b, "type %s struct{ p *netobjects.Promise }\n\n", prom)
	fmt.Fprintf(b, "// Promise returns the underlying untyped promise, usable for dynamic\n")
	fmt.Fprintf(b, "// chaining via PipeCall and for select-based completion via Done.\n")
	fmt.Fprintf(b, "func (p *%s) Promise() *netobjects.Promise { return p.p }\n\n", prom)

	// Typed chaining hook: the first result is an interface generated in
	// this same run, so dependent calls can stay on the typed fast path.
	if len(m.results) > 0 && g.batch[m.results[0].typ] {
		chained := m.results[0].typ + "Pipe"
		fmt.Fprintf(b, "// Pipe chains typed pipelined calls onto the eventual %s result.\n", m.results[0].typ)
		fmt.Fprintf(b, "func (p *%s) Pipe() *%s { return &%s{p: p.p} }\n\n", prom, chained, chained)
	}

	fmt.Fprintf(b, "// Await blocks until the pipelined call resolves and returns its\n")
	fmt.Fprintf(b, "// results; a failure anywhere earlier in the chain poisons it.\n")
	fmt.Fprintf(b, "func (p *%s) Await(ctx context.Context) (", prom)
	for _, r := range m.results {
		fmt.Fprintf(b, "%s, ", r.typ)
	}
	b.WriteString("error) {\n")
	for i, r := range m.results {
		fmt.Fprintf(b, "\tvar z%d %s\n", i, r.typ)
	}
	outsVar := "_"
	if len(m.results) > 0 {
		outsVar = "outs"
	}
	fmt.Fprintf(b, "\t%s, err := p.p.AwaitTyped(ctx)\n", outsVar)
	b.WriteString("\tif err != nil {\n\t\treturn ")
	for i := range m.results {
		fmt.Fprintf(b, "z%d, ", i)
	}
	b.WriteString("err\n\t}\n")
	for i, r := range m.results {
		fmt.Fprintf(b, "\tz%d, _ = outs[%d].Interface().(%s)\n", i, i, r.typ)
	}
	b.WriteString("\treturn ")
	for i := range m.results {
		fmt.Fprintf(b, "z%d, ", i)
	}
	b.WriteString("nil\n}\n\n")
}

// emitPipeMethod generates one <Method>Pipe variant on recv (the stub or
// the pipe facade); target is the expression carrying InvokeTypedPipe.
func (g *generator) emitPipeMethod(b *bytes.Buffer, d *ifaceDecl, m *methodDecl, recv, fpVar, recvVar, target string) {
	prom := d.name + m.name + "Promise"
	rtVar := fmt.Sprintf("stub%s%sResults", d.name, m.name)
	if recvVar == "s" {
		fmt.Fprintf(b, "// %sPipe issues %s.%s as a pipelined call: the promise returns\n", m.name, d.name, m.name)
		fmt.Fprintf(b, "// immediately and dependent pipelined calls may target it before it\n")
		fmt.Fprintf(b, "// resolves.\n")
	} else {
		fmt.Fprintf(b, "// %sPipe chains %s.%s onto the promised receiver.\n", m.name, d.name, m.name)
	}
	fmt.Fprintf(b, "func (%s *%s) %sPipe(ctx context.Context", recvVar, recv, m.name)
	for _, p := range m.params {
		fmt.Fprintf(b, ", %s %s", p.name, p.typ)
	}
	fmt.Fprintf(b, ") *%s {\n", prom)
	b.WriteString("\targs := []reflect.Value{")
	for i, p := range m.params {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "netobjects.ArgValue[%s](%s)", p.typ, p.name)
	}
	b.WriteString("}\n")
	results := "nil"
	if len(m.results) > 0 {
		results = rtVar
	}
	fmt.Fprintf(b, "\treturn &%s{p: %s.InvokeTypedPipe(ctx, %q, %s, args, %s)}\n", prom, target, m.name, fpVar, results)
	b.WriteString("}\n\n")
}

func (g *generator) emitMethod(b *bytes.Buffer, d *ifaceDecl, m *methodDecl) {
	stub := d.name + "Stub"
	fpVar := "stub" + d.name + "Fingerprint"
	rtVar := fmt.Sprintf("stub%s%sResults", d.name, m.name)

	if len(m.results) > 0 {
		fmt.Fprintf(b, "var %s = []reflect.Type{", rtVar)
		for i, r := range m.results {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(b, "netobjects.TypeFor[%s]()", r.typ)
		}
		b.WriteString("}\n\n")
	}

	// Signature.
	if m.hasCtx {
		fmt.Fprintf(b, "// %s invokes %s.%s remotely under ctx: its deadline travels\n", m.name, d.name, m.name)
		fmt.Fprintf(b, "// to the owner and cancelling it alerts the remote dispatch.\n")
	} else {
		fmt.Fprintf(b, "// %s invokes %s.%s remotely.\n", m.name, d.name, m.name)
	}
	fmt.Fprintf(b, "func (s *%s) %s(", stub, m.name)
	if m.hasCtx {
		b.WriteString("ctx context.Context")
	}
	for i, p := range m.params {
		if i > 0 || m.hasCtx {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "%s %s", p.name, p.typ)
	}
	b.WriteString(") (")
	for _, r := range m.results {
		fmt.Fprintf(b, "%s, ", r.typ)
	}
	b.WriteString("error) {\n")

	// Argument list, with static parameter types preserved.
	b.WriteString("\targs := []reflect.Value{")
	for i, p := range m.params {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "netobjects.ArgValue[%s](%s)", p.typ, p.name)
	}
	b.WriteString("}\n")
	for i, r := range m.results {
		fmt.Fprintf(b, "\tvar z%d %s\n", i, r.typ)
	}
	results := "nil"
	if len(m.results) > 0 {
		results = rtVar
	}
	outsVar := "_"
	if len(m.results) > 0 {
		outsVar = "outs"
	}
	if m.hasCtx {
		fmt.Fprintf(b, "\t%s, err := s.ref.InvokeTypedCtx(ctx, %q, %s, args, %s)\n", outsVar, m.name, fpVar, results)
	} else {
		fmt.Fprintf(b, "\t%s, err := s.ref.InvokeTyped(%q, %s, args, %s)\n", outsVar, m.name, fpVar, results)
	}
	b.WriteString("\tif err != nil {\n\t\treturn ")
	for i := range m.results {
		fmt.Fprintf(b, "z%d, ", i)
	}
	b.WriteString("err\n\t}\n")
	// Comma-ok assertions tolerate nil interface results.
	for i, r := range m.results {
		fmt.Fprintf(b, "\tz%d, _ = outs[%d].Interface().(%s)\n", i, i, r.typ)
	}
	b.WriteString("\treturn ")
	for i := range m.results {
		fmt.Fprintf(b, "z%d, ", i)
	}
	b.WriteString("nil\n}\n\n")
}
