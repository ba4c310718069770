// Package loc defines abstract stack locations (paper §3.1): named
// abstractions of the real stack locations a program can access. A location
// is a variable (with an optional selector path through struct fields and
// the two-location array abstraction a_head/a_tail), a symbolic name for
// invisible variables (1_x, 2_x, …), the single heap location, the NULL
// pseudo-location, string-literal storage, or a function (the target of a
// function pointer).
package loc

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cc/ast"
	"repro/internal/cc/types"
	"repro/internal/simple"
)

// Kind discriminates Location.
type Kind int

// Location kinds.
const (
	Var      Kind = iota // named variable (local, global, parameter) + path
	Symbolic             // invisible-variable stand-in, scoped to a function
	Heap                 // the single abstract heap location
	Null                 // the NULL pseudo-target
	Str                  // string-literal storage
	Func                 // a function, target of function pointers
	Freed                // deallocated heap storage (targets of freed pointers)
)

// Elem is one element of a location's selector path.
type Elem struct {
	Field string // field name, or "" for an array part
	Tail  bool   // array part: false = head (element 0), true = tail (1..n)
	Arr   bool   // true when this element is an array part
}

func (e Elem) String() string {
	if !e.Arr {
		return "." + e.Field
	}
	if e.Tail {
		return "[*]"
	}
	return "[0]"
}

// HeadElem and TailElem are the two abstract array parts. UnionElem is the
// collapsed representative of all members of a union: the members overlap
// in memory, so they share one absorbing abstract location (any further
// selector stays at it), which is conservatively multi.
var (
	HeadElem  = Elem{Arr: true}
	TailElem  = Elem{Arr: true, Tail: true}
	UnionElem = Elem{Field: "$union"}
)

// FieldElem returns a field path element.
func FieldElem(name string) Elem { return Elem{Field: name} }

// Location is one interned abstract stack location. Locations are created
// only by a Table; pointer equality is identity, and so is the pair of the
// table and the dense ID it assigned.
type Location struct {
	Kind Kind
	Obj  *ast.Object      // Var: the variable; Func: the function object
	Fn   *simple.Function // Symbolic: owning function; Var: nil for globals
	Path []Elem           // Var/Symbolic: selector path
	Sym  string           // Symbolic: root name, e.g. "1_x"

	name    string // cached render
	sortKey string // cached deterministic ordering key
	multi   bool   // represents more than one real stack location
	blob    bool   // union-collapsed location: absorbs further selectors
	typ     *types.Type
	id      uint32 // dense index in tab, in creation order
	tab     *Table
}

// Name returns the display name of the location (unique within its scope).
func (l *Location) Name() string { return l.name }

// Multi reports whether the location may represent more than one real stack
// location (a_tail parts, heap, string storage). Definite relationships must
// not be generated from or killed at such locations.
func (l *Location) Multi() bool { return l.multi }

// ID returns the location's dense index in its table: IDs run 0..N-1 in
// creation order, which under parallel analysis depends on the schedule.
func (l *Location) ID() uint32 { return l.id }

// Table returns the table that created the location.
func (l *Location) Table() *Table { return l.tab }

// Type returns the C type of the location's content, when known.
func (l *Location) Type() *types.Type { return l.typ }

// IsGlobalish reports whether the location is visible in every function:
// global variables, heap, NULL, strings, and functions.
func (l *Location) IsGlobalish() bool {
	switch l.Kind {
	case Heap, Null, Str, Func, Freed:
		return true
	case Var:
		return l.Obj.Global
	}
	return false
}

// Owner returns the owning function for locals and symbolics, or nil.
func (l *Location) Owner() *simple.Function { return l.Fn }

func (l *Location) String() string { return l.name }

// SortKey orders locations deterministically. It is computed once at
// interning time (locations are immutable), since set iteration sorts by it
// in hot paths.
func (l *Location) SortKey() string { return l.sortKey }

// ---------------------------------------------------------------------------
// Table

// Table interns all locations of one program analysis. It is safe for
// concurrent use: the parallel analysis workers intern locations through a
// shared table, and interning is idempotent (one canonical *Location per
// key, so pointer equality remains identity). One read-write mutex guards
// the three key maps; lock acquisitions that had to wait are counted.
//
// The table also numbers its locations densely as it creates them. The
// ID-to-location index is append-only and republished after every append,
// so At reads it without taking the lock.
type Table struct {
	mu        sync.RWMutex
	vars      map[varKey]*Location
	syms      map[symKey]*Location
	funcs     map[*ast.Object]*Location
	contended atomic.Uint64

	byID atomic.Pointer[[]*Location] // indexed by ID; appended under mu

	heap  *Location
	null  *Location
	str   *Location
	freed *Location

	// owners maps each local and parameter to its function. It is filled
	// by the constructor and only read afterwards, so it needs no lock.
	owners map[*ast.Object]*simple.Function
}

type varKey struct {
	obj  *ast.Object
	path string
}

type symKey struct {
	fn   *simple.Function
	sym  string
	path string
}

// NewTable returns an empty location table, registering ownership of locals
// and parameters for the given program.
func NewTable(prog *simple.Program) *Table {
	t := &Table{
		vars:   make(map[varKey]*Location),
		syms:   make(map[symKey]*Location),
		funcs:  make(map[*ast.Object]*Location),
		owners: make(map[*ast.Object]*simple.Function),
	}
	t.byID.Store(new([]*Location))
	t.heap = t.addFixed(&Location{Kind: Heap, name: "heap", multi: true})
	t.null = t.addFixed(&Location{Kind: Null, name: "NULL"})
	t.str = t.addFixed(&Location{Kind: Str, name: "_string_", multi: true})
	t.freed = t.addFixed(&Location{Kind: Freed, name: "freed", multi: true})
	if prog != nil {
		for _, f := range prog.Functions {
			for _, p := range f.Params {
				t.owners[p] = f
			}
			for _, l := range f.Locals {
				t.owners[l] = f
			}
			if f.RetVal != nil {
				t.owners[f.RetVal] = f
			}
		}
	}
	return t
}

// add completes a new location: it fills the cached ordering key, assigns
// the next ID and publishes the grown index. Callers hold the write lock,
// or own the table exclusively.
func (t *Table) add(l *Location) *Location {
	ids := *t.byID.Load()
	if uint64(len(ids)) == maxLocations {
		panic("loc: location table full")
	}
	owner := ""
	if l.Fn != nil {
		owner = l.Fn.Name()
	}
	l.sortKey = owner + "\x00" + l.name
	l.tab = t
	l.id = uint32(len(ids))
	ids = append(ids, l)
	t.byID.Store(&ids)
	return l
}

// addFixed adds one of the four fixed locations. A global may share its
// name (`int *heap;`), so its key gains a NUL byte, which no name contains:
// the key stays unique and sorts right after the global's, and its order
// against every other key is unchanged.
func (t *Table) addFixed(l *Location) *Location {
	t.add(l)
	l.sortKey += "\x00"
	return l
}

// maxLocations bounds a table's IDs to 31 bits, so that a points-to set can
// pack two IDs and a definiteness bit into one uint64.
const maxLocations = 1 << 31

// At returns the location with the given ID. It takes no lock: any ID
// obtained from a location of this table has been published.
func (t *Table) At(id uint32) *Location { return (*t.byID.Load())[id] }

// lock acquires the write lock, counting an acquisition that had to wait.
func (t *Table) lock() {
	if !t.mu.TryLock() {
		t.contended.Add(1)
		t.mu.Lock()
	}
}

// rlock acquires the read lock, counting an acquisition that had to wait.
func (t *Table) rlock() {
	if !t.mu.TryRLock() {
		t.contended.Add(1)
		t.mu.RLock()
	}
}

// TableStats reports the size and lock contention of the table.
type TableStats struct {
	Locations int    // distinct interned locations (vars + syms + funcs)
	Contended uint64 // lock acquisitions that had to wait
}

// Stats returns a snapshot of the table's counters.
func (t *Table) Stats() TableStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return TableStats{
		Locations: len(t.vars) + len(t.syms) + len(t.funcs),
		Contended: t.contended.Load(),
	}
}

// HeapLoc returns the single heap location.
func (t *Table) HeapLoc() *Location { return t.heap }

// NullLoc returns the NULL pseudo-location.
func (t *Table) NullLoc() *Location { return t.null }

// StrLoc returns the string-literal storage location.
func (t *Table) StrLoc() *Location { return t.str }

// FreedLoc returns the deallocated-heap location: free(p) retargets p's heap
// relationships here, mirroring HeapLoc. Like the heap it stands for many
// real locations and absorbs selectors, but unlike the heap it is never a
// legal target of a load or store — the memory-safety checker reports
// dereferences that can reach it.
func (t *Table) FreedLoc() *Location { return t.freed }

// FuncLoc returns the location standing for a function (the target of
// function pointers).
func (t *Table) FuncLoc(obj *ast.Object) *Location {
	t.rlock()
	l, ok := t.funcs[obj]
	t.mu.RUnlock()
	if ok {
		return l
	}
	t.lock()
	defer t.mu.Unlock()
	if l, ok := t.funcs[obj]; ok {
		return l
	}
	l = t.add(&Location{Kind: Func, Obj: obj, name: obj.Name, typ: obj.Type})
	t.funcs[obj] = l
	return l
}

func pathString(path []Elem) string {
	var sb strings.Builder
	for _, e := range path {
		sb.WriteString(e.String())
	}
	return sb.String()
}

// VarLoc returns the location for a variable plus selector path.
func (t *Table) VarLoc(obj *ast.Object, path []Elem) *Location {
	key := varKey{obj: obj, path: pathString(path)}
	t.rlock()
	l, ok := t.vars[key]
	t.mu.RUnlock()
	if ok {
		return l
	}
	t.lock()
	defer t.mu.Unlock()
	if l, ok := t.vars[key]; ok {
		return l
	}
	l = &Location{
		Kind: Var,
		Obj:  obj,
		Fn:   t.owners[obj],
		Path: append([]Elem{}, path...),
		name: obj.Name + key.path,
		typ:  typeAt(obj.Type, path),
	}
	for _, e := range path {
		if e.Arr && e.Tail {
			l.multi = true
		}
		if !e.Arr && e.Field == "$union" {
			l.multi = true
			l.blob = true
		}
	}
	t.vars[key] = t.add(l)
	return l
}

// SymLoc returns the symbolic location with the given root name and path,
// scoped to fn.
func (t *Table) SymLoc(fn *simple.Function, sym string, path []Elem, typ *types.Type) *Location {
	key := symKey{fn: fn, sym: sym, path: pathString(path)}
	t.rlock()
	l, ok := t.syms[key]
	t.mu.RUnlock()
	if ok {
		return l
	}
	t.lock()
	defer t.mu.Unlock()
	if l, ok := t.syms[key]; ok {
		return l
	}
	l = &Location{
		Kind: Symbolic,
		Fn:   fn,
		Sym:  sym,
		Path: append([]Elem{}, path...),
		name: sym + key.path,
		typ:  typ,
	}
	for _, e := range path {
		if e.Arr && e.Tail {
			l.multi = true
		}
		if !e.Arr && e.Field == "$union" {
			l.multi = true
			l.blob = true
		}
	}
	t.syms[key] = t.add(l)
	return l
}

// Extend returns the location reached from l by appending one path element.
// Heap, string and union-collapsed locations absorb selectors (they each
// stand for one undifferentiated region); NULL and functions cannot be
// extended and return nil. A field selector applied to a union type lands
// on the collapsed $union member (union members overlap in memory).
func (t *Table) Extend(l *Location, e Elem) *Location {
	switch l.Kind {
	case Heap, Str, Freed:
		return l
	case Null, Func:
		return nil
	}
	if l.blob {
		return l
	}
	if !e.Arr && l.typ != nil && l.typ.Kind == types.Union {
		e = UnionElem
	}
	switch l.Kind {
	case Var:
		return t.VarLoc(l.Obj, append(append([]Elem{}, l.Path...), e))
	case Symbolic:
		return t.SymLoc(l.Fn, l.Sym, append(append([]Elem{}, l.Path...), e), elemType(l.typ, e))
	}
	return nil
}

// Root returns the location with the path stripped (the variable or
// symbolic root itself).
func (t *Table) Root(l *Location) *Location {
	if len(l.Path) == 0 {
		return l
	}
	switch l.Kind {
	case Var:
		return t.VarLoc(l.Obj, nil)
	case Symbolic:
		return t.SymLoc(l.Fn, l.Sym, nil, nil)
	}
	return l
}

func elemType(t *types.Type, e Elem) *types.Type {
	if t == nil {
		return nil
	}
	if !e.Arr && e.Field == "$union" {
		return nil // collapsed union member: type indeterminate
	}
	if e.Arr {
		d := t.Decay()
		if d.Kind == types.Pointer {
			return d.Elem
		}
		return nil
	}
	if f := t.FieldByName(e.Field); f != nil {
		return f.Type
	}
	return nil
}

func typeAt(t *types.Type, path []Elem) *types.Type {
	for _, e := range path {
		t = elemType(t, e)
		if t == nil {
			return nil
		}
	}
	return t
}

// SymCount returns the number of distinct symbolic root names created for
// fn (Table 2 counts them among the function's abstract stack variables).
func (t *Table) SymCount(fn *simple.Function) int {
	names := make(map[string]bool)
	t.mu.RLock()
	defer t.mu.RUnlock()
	for k := range t.syms {
		if k.fn == fn && k.path == "" {
			names[k.sym] = true
		}
	}
	return len(names)
}

// Compare orders locations by SortKey, the deterministic order of
// everything that names or prints locations.
func Compare(x, y *Location) int { return strings.Compare(x.sortKey, y.sortKey) }

// SortLocs sorts a slice of locations deterministically in place and
// returns it.
func SortLocs(ls []*Location) []*Location {
	slices.SortFunc(ls, Compare)
	return ls
}

// PointerPaths enumerates the selector paths within type t that denote
// pointer-carrying scalar locations (pointers themselves). It is used to
// enumerate the abstract locations of aggregates: for `struct {int *p;
// int *a[4];} s` it yields [.p], [.a[0]], [.a[*]].
func PointerPaths(t *types.Type) [][]Elem {
	var out [][]Elem
	var walk func(t *types.Type, path []Elem, depth int)
	walk = func(t *types.Type, path []Elem, depth int) {
		if t == nil || depth > 12 {
			return
		}
		switch t.Kind {
		case types.Pointer:
			out = append(out, path)
		case types.Array:
			if !t.Elem.HasPointers() {
				return
			}
			walk(t.Elem, appendElem(path, HeadElem), depth+1)
			walk(t.Elem, appendElem(path, TailElem), depth+1)
		case types.Struct:
			for _, f := range t.Fields {
				if !f.Type.HasPointers() {
					continue
				}
				walk(f.Type, appendElem(path, FieldElem(f.Name)), depth+1)
			}
		case types.Union:
			// All members collapse into one absorbing location.
			out = append(out, appendElem(path, UnionElem))
		}
	}
	walk(t, nil, 0)
	return out
}

// appendElem appends without sharing backing arrays between branches.
func appendElem(path []Elem, e Elem) []Elem {
	return append(append(make([]Elem, 0, len(path)+1), path...), e)
}

// AllPaths enumerates every scalar selector path of t, pointer-carrying or
// not (used to count abstract stack variables for Table 2).
func AllPaths(t *types.Type) [][]Elem {
	var out [][]Elem
	var walk func(t *types.Type, path []Elem, depth int)
	walk = func(t *types.Type, path []Elem, depth int) {
		if t == nil || depth > 12 {
			return
		}
		switch t.Kind {
		case types.Array:
			walk(t.Elem, appendElem(path, HeadElem), depth+1)
			walk(t.Elem, appendElem(path, TailElem), depth+1)
		case types.Struct:
			for _, f := range t.Fields {
				walk(f.Type, appendElem(path, FieldElem(f.Name)), depth+1)
			}
		case types.Union:
			out = append(out, appendElem(path, UnionElem))
		default:
			out = append(out, path)
		}
	}
	walk(t, nil, 0)
	return out
}

// Fmt renders a location list for diagnostics.
func Fmt(ls []*Location) string {
	names := make([]string, len(ls))
	for i, l := range SortLocs(append([]*Location{}, ls...)) {
		names[i] = l.Name()
	}
	return fmt.Sprintf("[%s]", strings.Join(names, " "))
}
