package rdx_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportsOnlyTestsUse is how many exported identifiers of the module no
// non-test code uses, plus options no non-test code outside their package
// sets, that exportsAllowlist does not name. It only goes down: delete such
// code, then lower the number.
const exportsOnlyTestsUse = 15

// exportsAllowlist names the exported identifiers that stay although only
// tests use them, and the options that stay although only tests set them,
// each with the reason. A key is "<import path>.<Name>" or
// "<import path>.<Type>.<Method or Field>"; a key ending in "*" is a prefix.
var exportsAllowlist = map[string]string{
	// The public facade re-exports the library; its callers are users of
	// the module, not code in it.
	"rdx.*": "the public API; api_test.go and the root benchmarks are its in-tree callers",

	// Test infrastructure: only tests may link it.
	"rdx/internal/sim.*":          "the model checker; verify.sh keeps it out of every binary",
	"rdx/internal/sim/scenario.*": "the model checker's scenarios",
	"rdx/internal/faultnet.*":     "fault injection for transport tests",

	// The paper's Table 1 primitives and its security controls: the API
	// being reproduced.
	"rdx/internal/core.CodeFlow.AllocCode":       "Table 1 alloc_code",
	"rdx/internal/core.CodeFlow.AllocScratch":    "Table 1 alloc_scratch",
	"rdx/internal/core.CodeFlow.DeployXState":    "Table 1 deploy_xstate",
	"rdx/internal/core.CodeFlow.MutualExcl":      "Table 1 mutual_excl",
	"rdx/internal/core.CodeFlow.History":         "the per-hook deployment stack Rollback pops",
	"rdx/internal/core.CodeFlow.StageExtension":  "the one-call stage (reserve, wait for the claim, write) for a caller driving one node; fleet jobs run its halves in phases",
	"rdx/internal/core.CodeFlow.Bind":            "access control: binds a CodeFlow to a policy role",
	"rdx/internal/core.ControlPlane.SetPolicy":   "access control: installs the policy",
	"rdx/internal/core.ControlPlane.AuditLen":    "access control: the audit log of control-plane actions",
	"rdx/internal/core.CodeFlow.Quarantine":      "§5 recovery: roll back and clamp the runtime budget",
	"rdx/internal/core.CodeFlow.RuntimeAborts":   "§5 recovery: how many runs the runtime limit killed",
	"rdx/internal/core.CodeFlow.VerifyIntegrity": "§5 integrity: remote introspection of deployed code",
	"rdx/internal/core.Privilege.CanRollback":    "access control: a role's right to roll back",

	// Reference implementations the JIT and compilers are checked against.
	"rdx/internal/ebpf/vm.*":              "the eBPF interpreter the JIT is differentially tested against",
	"rdx/internal/wasm.Body.*":            "the Wasm builder tests assemble modules with",
	"rdx/internal/wasm.FilterWithImports": "the Wasm builder tests assemble modules with",
	"rdx/internal/wasm.NewLocalInstance":  "the Wasm interpreter the Wasm compiler is tested against",
	"rdx/internal/wasm.Instance.Run":      "the Wasm interpreter the Wasm compiler is tested against",
	"rdx/internal/udf.Eval":               "the UDF interpreter the compiler is differentially tested against",
	// The digest hashes Encode's output; round-tripping through Decode
	// proves that encoding is lossless, so distinct programs never share
	// a cache entry.
	"rdx/internal/ebpf.Encode": "the reference encoding Digest streams into its hash",
	"rdx/internal/ebpf.Decode": "the round-trip reference for the eBPF bytecode encoding",
	"rdx/internal/wasm.Decode": "the round-trip reference for the RDXW module encoding",

	// The eBPF assembler surface: the instruction set, not a caller's need.
	"rdx/internal/ebpf.Mov32Imm":       "eBPF assembler helper",
	"rdx/internal/ebpf.Alu32Imm":       "eBPF assembler helper",
	"rdx/internal/ebpf.Alu32Reg":       "eBPF assembler helper",
	"rdx/internal/ebpf.Neg64":          "eBPF assembler helper",
	"rdx/internal/ebpf.JmpReg":         "eBPF assembler helper",
	"rdx/internal/ebpf.LoadImm64":      "eBPF assembler helper",
	"rdx/internal/ebpf.Op*":            "eBPF opcode table",
	"rdx/internal/ebpf.SetImm64":       "the inverse of Imm64 on an LDDW pair",
	"rdx/internal/ebpf.ProgTypeUnspec": "the zero program type of the eBPF ABI",

	// Options only tests set. Each is read by library code, so it has one
	// value in every shipped configuration; these stay settable.
	"rdx/internal/cluster.Options.Latency":       "the simulated fabric's latency model, like node.Config.Latency",
	"rdx/internal/ebpf/verifier.Config.MaxInsns": "it bounds outside input, and bench/ builds verifier.Config{}",

	// The verb-chain surface stays whole until the roadmap decides what of
	// the chain offload remains.
	"rdx/internal/verbchain.Trigger":       "verb-chain trigger",
	"rdx/internal/verbchain.CondAlways":    "verb-chain condition",
	"rdx/internal/verbchain.WhenTrigger":   "verb-chain condition",
	"rdx/internal/verbchain.WhenReg":       "verb-chain condition",
	"rdx/internal/verbchain.MaxRegionSize": "verb-chain region bound",
	"rdx/internal/verbchain.RegionSize":    "verb-chain region size",
	"rdx/internal/verbchain.StatusIdle":    "verb-chain status word",
}

// TestExportsOnlyTestsUse type-checks every non-test file of the module, with
// bench/, cmd/ and examples/ as users, and reports each exported package-level
// object or method that only _test.go files use. Methods named by any
// interface (the standard library's included) are skipped: a call through
// the interface does not name the method's receiver type. It also reports
// each option only tests set (see unsetOptions).
func TestExportsOnlyTestsUse(t *testing.T) {
	l := newExportsLoader(t)
	unused := append(l.unusedExports(), l.unsetOptions()...)
	sortIdents(unused)

	matched := map[string]bool{}
	var unlisted []exportedIdent
	for _, id := range unused {
		key := allowlistKey(id.name)
		if key == "" {
			unlisted = append(unlisted, id)
			continue
		}
		matched[key] = true
	}
	var stale []string
	for key := range exportsAllowlist {
		if !matched[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("stale allowlist entry %q: it names nothing, or nothing only tests use", key)
	}

	if len(unlisted) == exportsOnlyTestsUse {
		return
	}
	var b strings.Builder
	for _, id := range unlisted {
		fmt.Fprintf(&b, "\n\t%s:%d: %s", id.file, id.line, id.name)
	}
	if len(unlisted) < exportsOnlyTestsUse {
		t.Errorf("%d exported identifiers only tests use, fewer than exportsOnlyTestsUse = %d: lower the constant to %d%s",
			len(unlisted), exportsOnlyTestsUse, len(unlisted), b.String())
		return
	}
	t.Errorf("%d exported identifiers only tests use, more than exportsOnlyTestsUse = %d: delete the new ones, or allowlist them with the reason they stay%s",
		len(unlisted), exportsOnlyTestsUse, b.String())
}

// allowlistKey returns the allowlist entry that covers name, or "".
func allowlistKey(name string) string {
	if _, ok := exportsAllowlist[name]; ok {
		return name
	}
	for key := range exportsAllowlist {
		if p, ok := strings.CutSuffix(key, "*"); ok && strings.HasPrefix(name, p) {
			return key
		}
	}
	return ""
}

type exportedIdent struct {
	name string // "<import path>.<Name>" or "<import path>.<Type>.<Method>"
	file string // relative to the module root
	line int
}

type loadedPkg struct {
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
}

// exportsLoader type-checks the module's packages from their directories,
// once each, and hands standard-library imports to the source importer.
type exportsLoader struct {
	t    *testing.T
	root string
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*loadedPkg // by import path
}

func newExportsLoader(t *testing.T) *exportsLoader {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	l := &exportsLoader{
		t:    t,
		root: root,
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*loadedPkg{},
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		importPath := "rdx"
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		if len(l.sourceFiles(path)) > 0 {
			_, err = l.load(importPath)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// sourceFiles lists dir's non-test Go files that the default build context
// selects.
func (l *exportsLoader) sourceFiles(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		l.t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			l.t.Fatal(err)
		} else if ok {
			files = append(files, filepath.Join(dir, name))
		}
	}
	return files
}

// Import implements types.Importer.
func (l *exportsLoader) Import(path string) (*types.Package, error) {
	if path != "rdx" && !strings.HasPrefix(path, "rdx/") {
		return l.std.Import(path)
	}
	return l.load(path)
}

func (l *exportsLoader) load(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p.pkg, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, "rdx"), "/")))
	var files []*ast.File
	for _, name := range l.sourceFiles(dir) {
		f, err := parser.ParseFile(l.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	l.pkgs[path] = &loadedPkg{pkg: pkg, info: info, files: files}
	return pkg, nil
}

// unusedExports returns the exported package-level objects and methods of the
// module's library packages that no non-test code uses, in file order. A
// function's calls to itself are not uses.
func (l *exportsLoader) unusedExports() []exportedIdent {
	bodies := map[types.Object]*ast.BlockStmt{}
	for _, p := range l.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					bodies[p.info.Defs[fd.Name]] = fd.Body
				}
			}
		}
	}
	used := map[types.Object]bool{}
	use := func(obj types.Object, at token.Pos) {
		obj = origin(obj)
		if b := bodies[obj]; b == nil || at < b.Pos() || at >= b.End() {
			used[obj] = true
		}
	}
	ifaceMethods := map[string]bool{}
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaceMethods[it.Method(i).Name()] = true
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range l.pkgs {
		walk(p.pkg)
		for _, tv := range p.info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
		for id, obj := range p.info.Uses {
			use(obj, id.Pos())
		}
		for sel, s := range p.info.Selections {
			use(s.Obj(), sel.Pos())
		}
	}

	var out []exportedIdent
	for path, p := range l.pkgs {
		if p.pkg.Name() == "main" {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				out = append(out, l.ident(path+"."+name, obj))
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m] && !ifaceMethods[m.Name()] {
					out = append(out, l.ident(path+"."+name+"."+m.Name(), m))
				}
			}
		}
	}
	return out
}

// unsetOptions returns the options that have one value in every shipped
// configuration, and so should be constants: each exported field of an
// exported "…Config" or "…Options" struct that non-test code reads but no
// non-test code outside the struct's package sets (its package may fill a
// default), and each exported bool field of another exported struct that
// non-test code reads but never sets (a switch such as an ablation flag).
// A set is a composite-literal key, an assignment or inc/dec target, or
// the operand of &.
func (l *exportsLoader) unsetOptions() []exportedIdent {
	read := map[types.Object]bool{}
	setInside, setOutside := map[types.Object]bool{}, map[types.Object]bool{}
	for _, p := range l.pkgs {
		set := func(obj types.Object) {
			if obj = origin(obj); obj.Pkg() == p.pkg {
				setInside[obj] = true
			} else {
				setOutside[obj] = true
			}
		}
		setSels := map[*ast.SelectorExpr]bool{}
		setSel := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if s, ok := p.info.Selections[sel]; ok && s.Kind() == types.FieldVal {
					setSels[sel] = true
					set(s.Obj())
				}
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok {
								if fld, ok := p.info.Uses[key].(*types.Var); ok && fld.IsField() {
									set(fld)
								}
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						setSel(lhs)
					}
				case *ast.IncDecStmt:
					setSel(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						setSel(n.X)
					}
				}
				return true
			})
		}
		for sel, s := range p.info.Selections {
			if s.Kind() == types.FieldVal && !setSels[sel] {
				read[origin(s.Obj())] = true
			}
		}
	}

	var out []exportedIdent
	for path, p := range l.pkgs {
		if p.pkg.Name() == "main" {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			option := strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")
			for i := 0; i < st.NumFields(); i++ {
				fld := st.Field(i)
				if !fld.Exported() || !read[fld] || setOutside[fld] {
					continue
				}
				if b, ok := fld.Type().(*types.Basic); option || ok && b.Kind() == types.Bool && !setInside[fld] {
					out = append(out, l.ident(path+"."+name+"."+fld.Name(), fld))
				}
			}
		}
	}
	return out
}

// ident locates obj, reported under name.
func (l *exportsLoader) ident(name string, obj types.Object) exportedIdent {
	pos := l.fset.Position(obj.Pos())
	file, err := filepath.Rel(l.root, pos.Filename)
	if err != nil {
		file = pos.Filename
	}
	return exportedIdent{name: name, file: filepath.ToSlash(file), line: pos.Line}
}

// sortIdents orders ids by file and line.
func sortIdents(ids []exportedIdent) {
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].file != ids[j].file {
			return ids[i].file < ids[j].file
		}
		return ids[i].line < ids[j].line
	})
}

// origin maps an instantiated generic function, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
