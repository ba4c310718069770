package pta

import (
	"testing"

	"repro/internal/cc/ast"
	"repro/internal/pta/invgraph"
	"repro/internal/pta/loc"
	"repro/internal/pta/ptset"
	"repro/internal/simple"
)

// TestFinishKeepsContexts: with contexts on, finish builds each statement's
// merge from its per-node sets, and from visits without a node, while each
// node's set stays the merge of the visits it saw.
func TestFinishKeepsContexts(t *testing.T) {
	tab := loc.NewTable(nil)
	var ls []*loc.Location
	for _, name := range []string{"x", "y", "z"} {
		ls = append(ls, tab.VarLoc(&ast.Object{Name: name, Global: true}, nil))
	}
	mk := func(dst *loc.Location, d ptset.Def) ptset.Set {
		s := ptset.New()
		s.Insert(ls[0], dst, d)
		return s
	}
	b1, b2 := &simple.Basic{}, &simple.Basic{}
	n1, n2 := &invgraph.Node{}, &invgraph.Node{}
	ann := NewAnnotations()
	ann.EnableContexts()
	for _, b := range []*simple.Basic{b1, b2} {
		ann.Record(b, mk(ls[1], ptset.D), n1)
		ann.Record(b, mk(ls[1], ptset.D), n1)
		ann.Record(b, mk(ls[2], ptset.D), n2)
	}
	ann.Record(b2, mk(ls[1], ptset.P), nil)
	ann.finish()

	for _, tc := range []struct {
		b            *simple.Basic
		in1, in2, at string
	}{
		{b1, "(x,y,D)", "(x,z,D)", "(x,y,P) (x,z,P)"},
		{b2, "(x,y,D)", "(x,z,D)", "(x,y,P) (x,z,P)"},
	} {
		ctxs := ann.ContextsAt(tc.b)
		if got1, got2 := ctxs[n1].String(), ctxs[n2].String(); got1 != tc.in1 || got2 != tc.in2 {
			t.Errorf("context sets = %s; %s, want %s; %s", got1, got2, tc.in1, tc.in2)
		}
		if got, ok := ann.At(tc.b); !ok || got.String() != tc.at {
			t.Errorf("merge = %s (recorded %v), want %s", got, ok, tc.at)
		}
	}
	if n := ann.TotalFacts(); n != 4 {
		t.Errorf("TotalFacts = %d, want 4", n)
	}
}
