package pta_test

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/check"
	"repro/internal/modref"
	"repro/internal/pta"
	"repro/internal/pta/loc"
	"repro/internal/ptagen"
	"repro/internal/race"
	"repro/internal/simple"
	"repro/internal/taint"
)

// TestIDOrderIndependence checks that location IDs decide nothing the
// analysis reports. IDs follow creation order, and so the parallel
// schedule; the engine walks sets in ID order wherever the effect
// commutes, and sorts by SortKey wherever an order names or prints. Each
// suite program, livc and the gen-check program is analyzed at 8 workers,
// whose schedule assigns the IDs, then serially on a table that
// pre-interns the first run's locations in reverse SortKey order. The
// fingerprint, the recorded facts, the steps and the check, race and taint
// diagnostics must not change. (TestOracleGolden pins the serial run on a
// fresh table.)
func TestIDOrderIndependence(t *testing.T) {
	type program struct {
		name string
		prog *simple.Program
	}
	var progs []program
	for _, name := range bench.Names() {
		prog, err := bench.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, program{name, prog})
	}
	cfg := ptagen.Presets["mid"]
	cfg.Depth, cfg.Width, cfg.Seed = 3, 3, 1
	prog, meta, err := ptagen.Load(cfg)
	if err != nil {
		t.Fatal(err)
	}
	progs = append(progs, program{meta.Name, prog})

	for _, p := range progs {
		t.Run(p.name, func(t *testing.T) {
			first := loc.NewTable(p.prog)
			want := idOrderOutcome(t, p.prog, pta.Options{Workers: 8, RecordContexts: true}, first)
			rev := reversedTable(p.prog, first)
			if got := idOrderOutcome(t, p.prog, pta.Options{Workers: 1, RecordContexts: true}, rev); got != want {
				t.Errorf("reversed IDs: %s", got.diff(want))
			}
			if n, want := rev.Stats().Locations, first.Stats().Locations; n != want {
				t.Errorf("reversed IDs: %d locations, first run %d", n, want)
			}
		})
	}
}

// reversedTable returns a table for prog holding the locations of first,
// created in reverse SortKey order, so that ID order runs against SortKey
// order. The four fixed locations keep IDs 0-3; Stats does not count them.
func reversedTable(prog *simple.Program, first *loc.Table) *loc.Table {
	ls := make([]*loc.Location, 4+first.Stats().Locations)
	for i := range ls {
		ls[i] = first.At(uint32(i))
	}
	slices.SortFunc(ls, func(x, y *loc.Location) int { return loc.Compare(y, x) })
	tab := loc.NewTable(prog)
	for _, l := range ls {
		switch l.Kind {
		case loc.Var:
			tab.VarLoc(l.Obj, l.Path)
		case loc.Symbolic:
			tab.SymLoc(l.Fn, l.Sym, l.Path, l.Type())
		case loc.Func:
			tab.FuncLoc(l.Obj)
		}
	}
	return tab
}

// idOutcome is what one run reports, with each rendering hashed.
type idOutcome struct {
	fingerprint, check, races, taint [sha256.Size]byte
	facts                            int
	steps                            int64
}

func (o idOutcome) diff(want idOutcome) string {
	var d []string
	for _, f := range []struct {
		name      string
		got, want [sha256.Size]byte
	}{
		{"fingerprint", o.fingerprint, want.fingerprint},
		{"check diagnostics", o.check, want.check},
		{"race diagnostics", o.races, want.races},
		{"taint diagnostics", o.taint, want.taint},
	} {
		if f.got != f.want {
			d = append(d, f.name+" differ")
		}
	}
	if o.facts != want.facts {
		d = append(d, fmt.Sprintf("facts %d, want %d", o.facts, want.facts))
	}
	if o.steps != want.steps {
		d = append(d, fmt.Sprintf("steps %d, want %d", o.steps, want.steps))
	}
	return strings.Join(d, "; ")
}

// idOrderOutcome analyzes prog on tab and runs the three clients.
func idOrderOutcome(t *testing.T, prog *simple.Program, opts pta.Options, tab *loc.Table) idOutcome {
	t.Helper()
	res, err := pta.AnalyzeOnTable(prog, opts, tab)
	if err != nil {
		t.Fatal(err)
	}
	cds, err := check.Run(res)
	if err != nil {
		t.Fatal(err)
	}
	rds, err := race.Run(res, modref.Compute(res))
	if err != nil {
		t.Fatal(err)
	}
	tds, err := taint.Run(res, taint.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return idOutcome{
		fingerprint: sha256.Sum256([]byte(pta.Fingerprint(res))),
		check:       hashLines(cds),
		races:       hashLines(rds),
		taint:       hashLines(tds),
		facts:       res.Annots.TotalFacts(),
		steps:       res.Metrics.Steps,
	}
}

func hashLines[D fmt.Stringer](ds []D) [sha256.Size]byte {
	h := sha256.New()
	for _, d := range ds {
		fmt.Fprintln(h, d.String())
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}
