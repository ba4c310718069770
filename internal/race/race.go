// Package race is a flow- and context-sensitive lockset-based static data
// race detector for pthread-style C, built on the D/P points-to results.
//
// Thread roots are the main invocation and every pseudo-root the analysis
// spawned for a pthread_create site (the entry function pointer resolved
// context-sensitively through the invocation graph). For each root the
// detector walks the SIMPLE IR of its invocation subtree, carrying
//
//   - the lockset: the mutexes definitely (D) or possibly (P) held, as
//     abstract locations in the root (main) naming — a pthread_mutex_lock
//     argument acquires definitely only when every abstract target of the
//     lock expression is one single definite, non-multi location;
//   - for the main root, the number of live (spawned, not yet joined)
//     threads, so accesses before the first spawn or after the last join do
//     not race.
//
// Every MOD/REF access (recorded with position and D/P certainty by package
// modref) translates through the invocation's map information back to the
// main naming and is kept when it touches a thread-shared location: a
// global, the heap, or anything reachable from a pthread_create argument.
//
// Two accesses race when their roots are concurrently live, they touch a
// common shared location, at least one writes, and the definite intersection
// of their locksets is empty. Severity follows the checker's definite/
// possible split: definite overlap (same single location, both derivations
// definite) with no possibly-common lock is an error; anything merely
// possible — may-alias overlap, or a possibly-held common lock — is a
// warning.
package race

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/cc/token"
	"repro/internal/modref"
	"repro/internal/pta"
	"repro/internal/pta/ctxwalk"
	"repro/internal/pta/invgraph"
	"repro/internal/pta/live"
	"repro/internal/pta/loc"
	"repro/internal/pta/ptset"
	"repro/internal/simple"
)

// Severity grades a diagnostic, matching package check's convention.
type Severity int

// Severities: Warning for a possible race, Error for a definite one.
const (
	Warning Severity = iota
	Error
)

func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Diag is one positioned race diagnostic.
type Diag struct {
	Pos token.Pos // position of the first access of the pair
	Sev Severity
	Loc string // the raced location, in the main naming
	Msg string
}

func (d Diag) String() string {
	return fmt.Sprintf("%s: %s: data-race: %s", d.Pos, d.Sev, d.Msg)
}

// Run detects data races over an analyzed program. The analysis must have
// been run with Options.RecordContexts and without ShareContexts (the same
// preconditions as package check: per-node annotations drive the per-context
// lockset evaluation, and shared-summary hits would leave contexts
// unannotated). mr must be computed from the same result.
func Run(res *pta.Result, mr *modref.Result) ([]Diag, error) {
	if res.Opts.ShareContexts {
		return nil, fmt.Errorf("race: analysis ran with ShareContexts; re-run without it")
	}
	if !res.Annots.ContextsEnabled() {
		return nil, fmt.Errorf("race: analysis ran without Options.RecordContexts")
	}
	d := &detector{
		res: res, mr: mr,
		shared: make(map[*loc.Location]bool),
		accBy:  make(map[*invgraph.Node]map[*simple.Basic][]modref.Access),
	}
	d.walk.Basic = d.walkBasic
	d.collectThreads()
	if len(d.threads) > 1 { // racing needs at least one spawned thread
		d.computeShared()
		for _, t := range d.threads {
			d.walkThread(t)
		}
		d.pair()
	}
	slices.SortStableFunc(d.diags, func(a, b Diag) int {
		return cmp.Or(a.Pos.Compare(b.Pos), strings.Compare(a.Loc, b.Loc), strings.Compare(a.Msg, b.Msg))
	})
	return d.diags, nil
}

// access is one shared-location touch, translated to the main naming, with
// the lockset snapshot at its program point.
type access struct {
	loc   *loc.Location
	def   ptset.Def // certainty the statement touches exactly loc
	write bool
	pos   token.Pos
	locks map[*loc.Location]ptset.Def
	conc  bool // a concurrent thread can be live at this point
}

// thread is one concurrently-runnable root: main, or a spawned pseudo-root.
type thread struct {
	node *invgraph.Node
	name string
	main bool
	// multi marks a thread whose spawn site sits in a loop: several
	// instances can run at once, so its accesses race with themselves.
	multi    bool
	accesses []access
	// accKey dedupes accesses re-recorded by loop fixed-point iterations,
	// merging their lockset snapshots to the weakest observed.
	accKey map[accessKey]int
}

type accessKey struct {
	l     *loc.Location
	pos   token.Pos
	write bool
}

type detector struct {
	res     *pta.Result
	mr      *modref.Result
	threads []*thread
	shared  map[*loc.Location]bool
	accBy   map[*invgraph.Node]map[*simple.Basic][]modref.Access
	diags   []Diag
	walk    ctxwalk.Walker[lstate]
	cur     *thread // the thread being walked
}

func (d *detector) collectThreads() {
	root := d.res.Graph.Root
	d.threads = append(d.threads, &thread{
		node: root, name: root.Fn.Name(), main: true, accKey: make(map[accessKey]int),
	})
	for _, n := range d.res.Graph.ThreadNodes() {
		d.threads = append(d.threads, &thread{
			node:   n,
			name:   fmt.Sprintf("thread %s (spawned at %s)", n.Fn.Name(), n.Site.Pos),
			multi:  spawnSiteInLoop(n.Parent.Fn.Body, n.Site),
			accKey: make(map[accessKey]int),
		})
	}
}

// spawnSiteInLoop reports whether the pthread_create statement sits inside a
// loop of the spawner's body: the site can then create several instances of
// the same pseudo-root, which are concurrent with each other.
func spawnSiteInLoop(body *simple.Seq, site *simple.Basic) bool {
	inLoop := false
	var find func(s simple.Stmt, depth int) bool
	find = func(s simple.Stmt, depth int) bool {
		switch s := s.(type) {
		case *simple.Basic:
			if s == site {
				inLoop = depth > 0
				return true
			}
		case *simple.Seq:
			if s == nil {
				return false
			}
			for _, c := range s.List {
				if find(c, depth) {
					return true
				}
			}
		case *simple.If:
			return find(s.Then, depth) || find(s.Else, depth)
		case *simple.While:
			return find(s.CondEval, depth+1) || find(s.Body, depth+1)
		case *simple.DoWhile:
			return find(s.Body, depth+1) || find(s.CondEval, depth+1)
		case *simple.For:
			if find(s.Init, depth) {
				return true
			}
			return find(s.CondEval, depth+1) || find(s.Body, depth+1) || find(s.Post, depth+1)
		case *simple.Switch:
			for _, c := range s.Cases {
				if find(c.Body, depth) {
					return true
				}
			}
		}
		return false
	}
	find(body, 0)
	return inLoop
}

// accessesAt groups a node's per-context accesses by statement, lazily.
func (d *detector) accessesAt(n *invgraph.Node, b *simple.Basic) []modref.Access {
	by, ok := d.accBy[n]
	if !ok {
		by = make(map[*simple.Basic][]modref.Access)
		for _, acc := range d.mr.ContextAccesses(n) {
			by[acc.Stmt] = append(by[acc.Stmt], acc)
		}
		d.accBy[n] = by
	}
	return by[b]
}

// translateToRoot maps a location from n's naming to the main naming by
// translating through every map information on the chain from n to the
// root. Locations private to an invocation (callee locals, unmapped
// symbolics) translate to nothing and are dropped — they are not visible to
// any other thread. The result definiteness weakens to P when the
// translation fans out.
func (d *detector) translateToRoot(n *invgraph.Node, l *loc.Location) ([]*loc.Location, ptset.Def) {
	cur := []*loc.Location{l}
	def := ptset.D
	for node := n; node.Parent != nil; node = node.Parent {
		mi, ok := node.MapInfo.(*pta.MapInfo)
		if !ok {
			return nil, ptset.P
		}
		var next []*loc.Location
		for _, c := range cur {
			next = append(next, mi.Translate(d.res, c)...)
		}
		if len(next) == 0 {
			return nil, ptset.P
		}
		if len(next) > 1 {
			def = ptset.P
		}
		cur = next
	}
	return cur, def
}

// nodeInput is the per-context annotation of b under node n.
func (d *detector) nodeInput(n *invgraph.Node, b *simple.Basic) (ptset.Set, bool) {
	in, ok := d.res.Annots.ContextsAt(b)[n]
	return in, ok
}

// computeShared seeds the thread-shared location set with everything a
// pthread_create argument can point to (in the main naming) and closes it
// transitively over the points-to relationships visible at main's exit and
// at the spawn sites: a cell pointed to by a shared location is reachable
// by the thread, hence shared. Globals, the heap and string storage are
// shared by definition (IsGlobalish) and need no entry here.
func (d *detector) computeShared() {
	universe := d.res.MainOut
	for _, t := range d.threads {
		if t.main {
			continue
		}
		site, parent := t.node.Site, t.node.Parent
		in, ok := d.nodeInput(parent, site)
		if !ok || len(site.Args) < 4 {
			continue
		}
		universe = ptset.Merge(universe, in)
		argRef, ok := site.Args[3].(*simple.Ref)
		if !ok {
			continue
		}
		for _, rl := range pta.EvalRLocsOfRef(d.res, argRef, in) {
			roots, _ := d.translateToRoot(parent, rl.Loc)
			for _, r := range roots {
				if r.Kind == loc.Var || r.Kind == loc.Symbolic {
					d.shared[r] = true
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		universe.Range(func(tr ptset.Triple) {
			dst := tr.Dst
			if dst.Kind != loc.Var && dst.Kind != loc.Symbolic {
				return
			}
			if d.shared[dst] || dst.IsGlobalish() {
				return
			}
			if d.isShared(tr.Src) {
				d.shared[dst] = true
				changed = true
			}
		})
	}
}

// coveredBy reports whether location l lies inside the storage named by s:
// the same root with s's selector path a prefix of l's.
func coveredBy(s, l *loc.Location) bool {
	if s == l {
		return true
	}
	if s.Kind != l.Kind {
		return false
	}
	switch s.Kind {
	case loc.Var:
		if s.Obj != l.Obj {
			return false
		}
	case loc.Symbolic:
		if s.Fn != l.Fn || s.Sym != l.Sym {
			return false
		}
	default:
		return false
	}
	if len(s.Path) > len(l.Path) {
		return false
	}
	for i := range s.Path {
		if s.Path[i] != l.Path[i] {
			return false
		}
	}
	return true
}

// isShared reports whether a main-naming location is visible to more than
// one thread: globals/heap/strings, or (a cell of) something reachable from
// a spawn argument.
func (d *detector) isShared(l *loc.Location) bool {
	if l.Kind == loc.Null || l.Kind == loc.Func {
		return false
	}
	if l.IsGlobalish() {
		return true
	}
	for s := range d.shared {
		if coveredBy(s, l) {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// The lockset walk

// lstate is the abstract state carried by the lockset walk: the held locks
// (main naming; D definitely held, P possibly held) and, under the main
// root, the saturating count of live spawned threads. The zero lstate, with
// no lock map, is the dead state.
type lstate struct {
	locks ctxwalk.Defs
	live  int
}

func (s lstate) Dead() bool { return s.locks == nil }

// Join joins two control-flow paths: a lock stays definite only when
// definitely held on both, the live-thread count takes the maximum
// (conservative: more concurrency, more reported races).
func (s lstate) Join(o lstate) lstate {
	return lstate{locks: ctxwalk.JoinDefs(s.locks, o.locks), live: max(s.live, o.live)}
}

func (s lstate) Equal(o lstate) bool { return s.live == o.live && maps.Equal(s.locks, o.locks) }

// walkThread runs the lockset walk over one thread root's subtree.
func (d *detector) walkThread(t *thread) {
	d.cur = t
	d.walk.Node(t.node, lstate{locks: ctxwalk.Defs{}})
}

// walkBasic records b's shared accesses under the current lockset, applies
// the pthread intrinsics to the state, and descends into resolved callees.
func (d *detector) walkBasic(n *invgraph.Node, b *simple.Basic, st lstate) lstate {
	d.recordAccesses(d.cur, n, b, st)

	if b.Kind == simple.AsgnCall && b.Callee != nil {
		switch b.Callee.Name {
		case pta.PthreadMutexLock:
			d.applyLock(n, b, &st, true)
			return st
		case pta.PthreadMutexUnlock:
			d.applyLock(n, b, &st, false)
			return st
		case pta.PthreadCreate:
			if st.live < 2 {
				st.live++ // saturating: 2 means "several"
			}
			return st // thread children are separate roots, not callees
		case pta.PthreadJoin:
			if st.live > 0 {
				st.live--
			}
			return st
		}
	}
	if b.Kind != simple.AsgnCall && b.Kind != simple.AsgnCallInd {
		return st
	}
	// Descend into the resolved callees; an external call leaves the state
	// unchanged.
	return ctxwalk.Callees(n, b, st, d.walk.Node)
}

// lockTargets resolves the mutex locations a lock/unlock argument can
// denote under b's per-context input, translated to the main naming.
// definite reports whether the argument denotes exactly one single,
// non-multi location with a definite derivation — the only case in which
// acquiring protects and releasing definitely unprotects.
func (d *detector) lockTargets(n *invgraph.Node, b *simple.Basic) (targets []*loc.Location, definite bool) {
	if len(b.Args) < 1 {
		return nil, false
	}
	argRef, ok := b.Args[0].(*simple.Ref)
	if !ok {
		return nil, false
	}
	in, ok := d.nodeInput(n, b)
	if !ok {
		return nil, false
	}
	definite = true
	seen := make(map[*loc.Location]bool)
	for _, rl := range pta.EvalRLocsOfRef(d.res, argRef, in) {
		if rl.Loc.Kind == loc.Null {
			continue
		}
		roots, rdef := d.translateToRoot(n, rl.Loc)
		if len(roots) == 0 {
			definite = false
			continue
		}
		if rl.Def == ptset.P || rdef == ptset.P {
			definite = false
		}
		for _, r := range roots {
			if r.Multi() {
				definite = false
			}
			if !seen[r] {
				seen[r] = true
				targets = append(targets, r)
			}
		}
	}
	loc.SortLocs(targets)
	if len(targets) != 1 {
		definite = false
	}
	return targets, definite
}

// applyLock mutates the state for pthread_mutex_lock/unlock: a definite
// single target acquires definitely / releases outright; anything weaker
// acquires possibly / downgrades the release targets to possibly held.
func (d *detector) applyLock(n *invgraph.Node, b *simple.Basic, st *lstate, acquire bool) {
	targets, definite := d.lockTargets(n, b)
	st.locks = maps.Clone(st.locks)
	for _, m := range targets {
		switch {
		case acquire && definite:
			st.locks[m] = ptset.D
		case acquire:
			if st.locks[m] != ptset.D {
				st.locks[m] = ptset.P
			}
		case definite:
			delete(st.locks, m)
		default:
			if _, held := st.locks[m]; held {
				st.locks[m] = ptset.P
			}
		}
	}
}

// recordAccesses emits b's recorded MOD/REF accesses (per-node naming) as
// thread accesses in the main naming, keeping only thread-shared locations.
// Loop fixed-point iterations revisit statements: re-recorded accesses merge
// lockset snapshots down to the weakest observed, so an access protected
// only on some iterations does not count as protected.
func (d *detector) recordAccesses(t *thread, n *invgraph.Node, b *simple.Basic, st lstate) {
	for _, acc := range d.accessesAt(n, b) {
		roots, rdef := d.translateToRoot(n, acc.Loc)
		for _, rl := range roots {
			if !d.isShared(rl) {
				continue
			}
			def := acc.Def.And(rdef)
			if rl.Multi() || len(roots) > 1 {
				def = ptset.P
			}
			conc := !t.main || st.live > 0
			key := accessKey{l: rl, pos: acc.Pos, write: acc.Write}
			if i, ok := t.accKey[key]; ok {
				prev := &t.accesses[i]
				prev.locks = intersectLocks(prev.locks, st.locks)
				prev.conc = prev.conc || conc
				prev.def = prev.def.And(def)
				continue
			}
			t.accKey[key] = len(t.accesses)
			t.accesses = append(t.accesses, access{
				loc: rl, def: def, write: acc.Write, pos: acc.Pos,
				locks: maps.Clone(st.locks), conc: conc,
			})
		}
	}
}

// intersectLocks keeps the weakest view of two lockset snapshots of the
// same access: a lock counts as definitely held only when both snapshots
// hold it definitely, and drops out entirely when either lacks it.
func intersectLocks(a, b map[*loc.Location]ptset.Def) map[*loc.Location]ptset.Def {
	out := make(map[*loc.Location]ptset.Def)
	for l, da := range a {
		if db, ok := b[l]; ok {
			if da == ptset.D && db == ptset.D {
				out[l] = ptset.D
			} else {
				out[l] = ptset.P
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Pairing

// overlap classifies how two main-naming locations can denote the same
// cell: equal single locations overlap definitely; equal multi locations
// (heap, array tails) and prefix-related aggregate paths only possibly.
func overlap(a, b *loc.Location) (possible, definite bool) {
	if a == b {
		return true, !a.Multi()
	}
	return coveredBy(a, b) || coveredBy(b, a), false
}

// lockIntersection inspects two lockset snapshots: definitely reports a
// mutex definitely held around both accesses (the pair is protected);
// possibly reports any common mutex at all (the pair may be protected).
func lockIntersection(a, b map[*loc.Location]ptset.Def) (definitely, possibly bool) {
	for l, da := range a {
		if db, ok := b[l]; ok {
			possibly = true
			if da == ptset.D && db == ptset.D {
				definitely = true
			}
		}
	}
	return definitely, possibly
}

type pairKey struct {
	loc    string
	pa, pb token.Pos
	wa, wb bool
}

func (d *detector) pair() {
	best := make(map[pairKey]int) // -> index into d.diags, keeping the worst
	for i := range d.threads {
		for j := i; j < len(d.threads); j++ {
			ta, tb := d.threads[i], d.threads[j]
			if i == j && (ta.main || !ta.multi) {
				continue // a single instance does not race with itself
			}
			if i != j && !ta.main && !tb.main &&
				ta.node.Parent == tb.node.Parent && ta.node.Site == tb.node.Site &&
				!ta.multi && !tb.multi {
				// Alternative entries resolved from one spawn site: the
				// call creates one thread, so at most one of them runs.
				continue
			}
			for ai := range ta.accesses {
				bStart := 0
				if i == j {
					bStart = ai // unordered pairs; self-pair included
				}
				for bi := bStart; bi < len(tb.accesses); bi++ {
					d.judge(ta, tb, &ta.accesses[ai], &tb.accesses[bi], best)
				}
			}
		}
	}
}

// judge decides whether two accesses race and emits (or upgrades) the
// diagnostic.
func (d *detector) judge(ta, tb *thread, a, b *access, best map[pairKey]int) {
	if !a.write && !b.write {
		return
	}
	if !a.conc || !b.conc {
		return
	}
	possOverlap, defOverlap := overlap(a.loc, b.loc)
	if !possOverlap {
		return
	}
	defLock, possLock := lockIntersection(a.locks, b.locks)
	if defLock {
		return // definitely protected by a common mutex
	}
	sev := Warning
	if defOverlap && !possLock && a.def == ptset.D && b.def == ptset.D {
		sev = Error
	}

	first, second, tf, ts := a, b, ta, tb
	if second.pos.Compare(first.pos) < 0 {
		first, second, tf, ts = b, a, tb, ta
	}
	note := "no common lock held"
	if possLock {
		note = "only possibly protected by a common lock"
	}
	var msg string
	if a == b {
		msg = fmt.Sprintf("%s of %s in %s races with itself in another instance (%s)",
			opName(first), first.loc.Name(), tf.name, note)
	} else {
		msg = fmt.Sprintf("%s of %s in %s races with %s of %s at %s in %s (%s)",
			opName(first), first.loc.Name(), tf.name,
			opName(second), second.loc.Name(), second.pos, ts.name, note)
	}

	key := pairKey{loc: first.loc.Name(), pa: first.pos, pb: second.pos, wa: first.write, wb: second.write}
	if idx, ok := best[key]; ok {
		if sev > d.diags[idx].Sev {
			d.diags[idx].Sev = sev
			d.diags[idx].Msg = msg
		}
		return
	}
	best[key] = len(d.diags)
	d.diags = append(d.diags, Diag{Pos: first.pos, Sev: sev, Loc: first.loc.Name(), Msg: msg})
}

func opName(a *access) string {
	if a.write {
		return "write"
	}
	return "read"
}

// DemandSeeds returns the demand the race detector places on a points-to
// analysis run in demand mode. The detector reads the per-context
// annotation of every reachable statement (access classification, lockset
// resolution) and transitively closes the thread-shared location set over
// whole annotation sets at spawn sites, so its demand is the degenerate
// all-statements seed. Liveness pruning still drops facts of dead
// non-address-taken locals, which can never be thread-shared (nothing can
// point to them), so detector output is unchanged.
func DemandSeeds(prog *simple.Program) *live.Seeds {
	return live.SeedAllStatements(prog)
}
