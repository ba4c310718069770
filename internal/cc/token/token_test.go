package token

import (
	"slices"
	"testing"
)

func TestPosCompare(t *testing.T) {
	sorted := []Pos{
		{File: "", Line: 9, Col: 9},
		{File: "a.c", Line: 2, Col: 7},
		{File: "a.c", Line: 10, Col: 1},
		{File: "a.c", Line: 10, Col: 3},
		{File: "b.c", Line: 1, Col: 1},
	}
	for i, p := range sorted {
		for j, q := range sorted {
			want := 0
			switch {
			case i < j:
				want = -1
			case i > j:
				want = 1
			}
			if got := p.Compare(q); got != want {
				t.Errorf("%v.Compare(%v) = %d, want %d", p, q, got, want)
			}
		}
	}
	shuffled := []Pos{sorted[3], sorted[0], sorted[4], sorted[2], sorted[1]}
	slices.SortFunc(shuffled, Pos.Compare)
	if !slices.Equal(shuffled, sorted) {
		t.Errorf("sorted %v, want %v", shuffled, sorted)
	}
}
