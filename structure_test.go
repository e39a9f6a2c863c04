// Structural rules of the code base, checked on the parsed syntax of every
// non-test Go file in the module: no exported name under internal/ that
// nothing outside the tests uses, and the "one representation per concept"
// rules earlier refactors established (sinks owned by a System, one per-job
// ledger, one prepared pattern, one PU kernel, one backtracker). They see
// identifiers, not text, so a reformat or an import alias cannot slip past
// them.
package doppiodb_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// modulePath is the module's import path prefix (go.mod).
const modulePath = "doppiodb/"

// srcFile is one parsed non-test Go file of the module.
type srcFile struct {
	dir     string // package directory relative to the module root, slash-separated
	name    string // base name
	ast     *ast.File
	imports map[string]string // local import name → package directory, module imports only
}

var (
	srcOnce  sync.Once
	srcFset  = token.NewFileSet()
	srcFiles []*srcFile
	srcErr   error
)

// moduleSources parses every non-test Go file under the module root once
// per test binary.
func moduleSources(t *testing.T) []*srcFile {
	t.Helper()
	srcOnce.Do(func() { srcFiles, srcErr = parseModule(".") })
	if srcErr != nil {
		t.Fatal(srcErr)
	}
	return srcFiles
}

func parseModule(root string) ([]*srcFile, error) {
	var out []*srcFile
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(srcFset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		sf := &srcFile{dir: filepath.ToSlash(filepath.Dir(path)), name: name, ast: f, imports: map[string]string{}}
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			dir, ok := strings.CutPrefix(p, modulePath)
			if !ok {
				continue
			}
			local := dir[strings.LastIndex(dir, "/")+1:]
			if im.Name != nil {
				local = im.Name.Name
			}
			sf.imports[local] = dir
		}
		out = append(out, sf)
		return nil
	})
	return out, err
}

// isInternal reports whether a package directory is an internal package.
func isInternal(dir string) bool {
	return strings.HasPrefix(dir, "internal/") || strings.Contains(dir, "/internal/")
}

func (f *srcFile) pos(p token.Pos) string { return srcFset.Position(p).String() }

// refersTo reports whether sel is pkgDir.name for some name in names,
// resolved through the file's imports (so an alias does not hide it).
func (f *srcFile) refersTo(sel *ast.SelectorExpr, pkgDir string, names ...string) bool {
	x, ok := sel.X.(*ast.Ident)
	if !ok || f.imports[x.Name] != pkgDir {
		return false
	}
	for _, n := range names {
		if sel.Sel.Name == n {
			return true
		}
	}
	return false
}

// typeName is the name of the (possibly pointer, possibly qualified) type
// expression e, or "" when e is not a named type.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr: // generic instantiation
		return typeName(e.X)
	}
	return ""
}

// standardMethods satisfy standard-library interfaces, which call them
// without a selector in this module's code.
var standardMethods = map[string]bool{
	"String": true, "Error": true, "Is": true, "Unwrap": true, "MarshalJSON": true, "ServeHTTP": true,
}

// deadExportAllow lists exported names under internal/ that no non-test
// code references but that stay on purpose, each with its reason. Keys are
// "<package dir>.<Name>" or "<package dir>.<Receiver>.<Method>".
var deadExportAllow = map[string]string{
	"internal/workload.TPCH.Q13Reference": "the TPC-H Q13 oracle the sql and workload tests compare query results against",
}

// exportDecl is one exported func, method, type or var declared under
// internal/.
type exportDecl struct {
	key    string
	name   string
	method bool
	file   *srcFile
	node   ast.Node // the whole declaration: references inside it do not count
}

// TestNoDeadExports fails on an exported func, method, type or var under
// internal/ that no non-test code references outside its own declaration.
// References from every package count: cmd/, bench/, examples/ and the root
// package. A method is counted by its .Name selectors, anything else by its
// identifier; a receiver's type does not count as a use of that type. The
// check is name-level, so a name shared across packages counts as used: it
// can miss dead code, never report live code. Constants are exempt, so enum
// members are never renumbered.
func TestNoDeadExports(t *testing.T) {
	files := moduleSources(t)
	var decls []exportDecl
	for _, f := range files {
		if !isInternal(f.dir) {
			continue
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				ed := exportDecl{key: f.dir + "." + d.Name.Name, name: d.Name.Name, file: f, node: d}
				if d.Recv != nil {
					if standardMethods[d.Name.Name] {
						continue
					}
					ed.method = true
					ed.key = f.dir + "." + typeName(d.Recv.List[0].Type) + "." + d.Name.Name
				}
				decls = append(decls, ed)
			case *ast.GenDecl:
				if d.Tok != token.TYPE && d.Tok != token.VAR {
					continue
				}
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							decls = append(decls, exportDecl{key: f.dir + "." + s.Name.Name, name: s.Name.Name, file: f, node: s})
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								decls = append(decls, exportDecl{key: f.dir + "." + n.Name, name: n.Name, file: f, node: s})
							}
						}
					}
				}
			}
		}
	}

	type occurrence struct {
		file *srcFile
		pos  token.Pos
	}
	idents := map[string][]occurrence{}    // every identifier
	selectors := map[string][]occurrence{} // the Name of every x.Name
	for _, f := range files {
		receivers := map[*ast.FieldList]bool{}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				receivers[n.Recv] = true
			case *ast.FieldList:
				return !receivers[n]
			case *ast.SelectorExpr:
				selectors[n.Sel.Name] = append(selectors[n.Sel.Name], occurrence{f, n.Sel.Pos()})
			case *ast.Ident:
				idents[n.Name] = append(idents[n.Name], occurrence{f, n.Pos()})
			}
			return true
		})
	}

	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		refs := idents[d.name]
		if d.method {
			refs = selectors[d.name]
		}
		used := false
		for _, o := range refs {
			if o.file != d.file || o.pos < d.node.Pos() || o.pos >= d.node.End() {
				used = true
				break
			}
		}
		reason, allowed := deadExportAllow[d.key]
		switch {
		case !used && !allowed:
			t.Errorf("%s: %s is exported but no non-test code references it; delete it, move it into a _test.go file, or allow-list it with a reason",
				d.file.pos(d.node.Pos()), d.key)
		case used && allowed:
			t.Errorf("%s: %s is allow-listed as unreferenced (%q) but non-test code uses it; drop the entry",
				d.file.pos(d.node.Pos()), d.key, reason)
		}
	}
	for k := range deadExportAllow {
		if !seen[k] {
			t.Errorf("allow-list entry %s names no exported declaration", k)
		}
	}
}

// sinkTypes are the per-System observability sinks.
var sinkTypes = map[string]bool{"Registry": true, "Recorder": true, "Auditor": true, "Observer": true}

// TestNoProcessWideSinks: a System owns its registry, recorder, auditor and
// observer. No package-level variable holds one, no Default() hands one out
// and no SetDefault installs one.
func TestNoProcessWideSinks(t *testing.T) {
	files := moduleSources(t)
	// Functions of the module that return a sink, so `var r = pkg.New()`
	// is recognised without type checking.
	returnsSink := map[string]bool{} // "<dir>.<Name>"
	for _, f := range files {
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Type.Results != nil &&
				len(fd.Type.Results.List) > 0 && sinkTypes[typeName(fd.Type.Results.List[0].Type)] {
				returnsSink[f.dir+"."+fd.Name.Name] = true
			}
		}
	}
	holdsSink := func(f *srcFile, e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.UnaryExpr:
			if cl, ok := e.X.(*ast.CompositeLit); ok {
				return sinkTypes[typeName(cl.Type)]
			}
		case *ast.CallExpr:
			switch fn := e.Fun.(type) {
			case *ast.Ident:
				return returnsSink[f.dir+"."+fn.Name]
			case *ast.SelectorExpr:
				if x, ok := fn.X.(*ast.Ident); ok {
					return returnsSink[f.imports[x.Name]+"."+fn.Sel.Name]
				}
			}
		}
		return false
	}
	for _, f := range files {
		if !strings.HasPrefix(f.dir, "internal/") && !strings.HasPrefix(f.dir, "cmd/") {
			continue
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					continue
				}
				if d.Name.Name == "SetDefault" {
					t.Errorf("%s: package-level SetDefault installs a process-wide default", f.pos(d.Pos()))
				}
				if d.Name.Name == "Default" && returnsSink[f.dir+".Default"] {
					t.Errorf("%s: package-level Default() hands out a process-wide sink", f.pos(d.Pos()))
				}
			case *ast.GenDecl:
				if d.Tok != token.VAR {
					continue
				}
				for _, s := range d.Specs {
					vs := s.(*ast.ValueSpec)
					if len(vs.Names) == 1 && vs.Names[0].Name == "_" {
						continue // a compile-time interface assertion holds nothing reachable
					}
					bad := vs.Type != nil && sinkTypes[typeName(vs.Type)]
					for _, v := range vs.Values {
						bad = bad || holdsSink(f, v)
					}
					if bad {
						t.Errorf("%s: package-level variable %s holds a sink; a System owns its sinks", f.pos(vs.Pos()), vs.Names[0].Name)
					}
				}
			}
		}
	}
}

// assertNoDecl fails for every top-level declaration under internal/ named
// in retired: each is a representation a refactor replaced.
func assertNoDecl(t *testing.T, files []*srcFile, retired map[string]string) {
	t.Helper()
	check := func(f *srcFile, id *ast.Ident) {
		if why, ok := retired[id.Name]; ok {
			t.Errorf("%s: %s is declared again; %s", f.pos(id.Pos()), id.Name, why)
		}
	}
	for _, f := range files {
		if !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				check(f, d.Name)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						check(f, s.Name)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							check(f, n)
						}
					}
				}
			}
		}
	}
}

// TestOnePerJobLedger: memmodel.Simulate produces a job's device accounting
// (memmodel.JobLedger) and topdown declares the cycle-bucket structs. No
// parallel tracker comes back, and no struct outside internal/topdown
// declares the bucket fields.
func TestOnePerJobLedger(t *testing.T) {
	files := moduleSources(t)
	const why = "memmodel.JobLedger is the per-job ledger and topdown.Buckets/LinkBuckets the bucket structs"
	assertNoDecl(t, files, map[string]string{
		"attribution": why, "jobAttr": why, "EngineLedger": why, "LinkLedger": why, "JobBuckets": why,
	})
	for _, f := range files {
		if !strings.HasPrefix(f.dir, "internal/") || f.dir == "internal/topdown" {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					if name.Name == "StallInput" || name.Name == "StallOutput" || name.Name == "StallSwitch" {
						t.Errorf("%s: struct declares bucket field %s; embed topdown.Buckets instead", f.pos(name.Pos()), name.Name)
					}
				}
			}
			return true
		})
	}
}

// TestOnePreparedPattern: internal/core turns pattern text into anything in
// prepared.go only; Exec and the cost model read the prepared artifact. The
// SLO windows, the SQL predicate recogniser and session numbering have one
// home each.
func TestOnePreparedPattern(t *testing.T) {
	files := moduleSources(t)
	for _, f := range files {
		if f.dir != "internal/core" {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if f.name != "prepared.go" &&
					(f.refersTo(n, "internal/regex", "Parse") ||
						f.refersTo(n, "internal/token", "CompilePattern") ||
						f.refersTo(n, "internal/config", "Encode", "Fits")) {
					t.Errorf("%s: %s.%s outside prepared.go; read the prepared pattern instead",
						f.pos(n.Pos()), n.X.(*ast.Ident).Name, n.Sel.Name)
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "SplitPattern" {
					t.Errorf("%s: internal/core calls SplitPattern; read the prepared pattern's split instead", f.pos(n.Pos()))
				}
			}
			return true
		})
	}
	assertNoDecl(t, files, map[string]string{
		"windowCounts":  "the SLO windows are telemetry.WindowedHistograms",
		"explainTarget": "sql.hardwarePredicate is the one recogniser of a hardware predicate",
		"engineSeq":     "mdb.DB.NextSession numbers sessions per database",
	})
}

// matchBodies returns the functions or methods in the non-test files of dir
// whose name starts with Match or match, other than MatchString, restricted
// to methods on recv when recv is not empty.
func matchBodies(files []*srcFile, dir, recv string) []string {
	var out []string
	for _, f := range files {
		if f.dir != dir {
			continue
		}
		for _, d := range f.ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "MatchString" ||
				!(strings.HasPrefix(fd.Name.Name, "Match") || strings.HasPrefix(fd.Name.Name, "match")) {
				continue
			}
			if recv != "" && (fd.Recv == nil || typeName(fd.Recv.List[0].Type) != recv) {
				continue
			}
			out = append(out, f.pos(fd.Pos())+" "+fd.Name.Name)
		}
	}
	return out
}

// assertNoIdent fails for every identifier in the non-test files of dir
// named in banned.
func assertNoIdent(t *testing.T, files []*srcFile, dir string, banned ...string) {
	t.Helper()
	for _, f := range files {
		if f.dir != dir {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				for _, b := range banned {
					if id.Name == b {
						t.Errorf("%s: %s is back in %s", f.pos(id.Pos()), b, dir)
					}
				}
			}
			return true
		})
	}
}

// TestOnePUKernel: pu.(*Unit).Match is the Shift-And kernel and the only
// match body in internal/pu; the per-token loops do not come back.
func TestOnePUKernel(t *testing.T) {
	files := moduleSources(t)
	assertNoIdent(t, files, "internal/pu", "withPreds", "predMask")
	if got := matchBodies(files, "internal/pu", ""); len(got) != 1 {
		t.Errorf("internal/pu has %d match bodies, want exactly one (Unit.Match): %v", len(got), got)
	}
}

// TestOneBacktracker: softregex.Backtracker runs one compiled program over
// an explicit stack. The closure-CPS interpreter (func(int) bool
// continuations, btRun) lives only in the tests, as the reference.
func TestOneBacktracker(t *testing.T) {
	files := moduleSources(t)
	const dir = "internal/softregex"
	assertNoIdent(t, files, dir, "btRun")
	for _, f := range files {
		if f.dir != dir {
			continue
		}
		decls := map[*ast.FuncType]bool{}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok {
				decls[fd.Type] = true // a declared function's signature is not a continuation
			}
			ft, ok := n.(*ast.FuncType)
			if ok && !decls[ft] && ft.Params.NumFields() == 1 && ft.Results.NumFields() == 1 &&
				typeName(ft.Params.List[0].Type) == "int" && typeName(ft.Results.List[0].Type) == "bool" {
				t.Errorf("%s: func(int) bool continuation in %s", f.pos(ft.Pos()), dir)
			}
			return true
		})
	}
	if got := matchBodies(files, dir, "Backtracker"); len(got) != 1 {
		t.Errorf("Backtracker has %d match bodies, want exactly one (Match): %v", len(got), got)
	}
}
