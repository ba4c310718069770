package report

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/constprop"
	"repro/internal/heapconn"
)

// WriteConstants renders constant propagation's findings: a count line,
// then one indented line per constant statement in program order.
func WriteConstants(w io.Writer, r *constprop.Result) {
	fmt.Fprintf(w, "constant statements: %d\n", len(r.Constants))
	for _, f := range r.Constants {
		fmt.Fprintln(w, " ", f)
	}
}

// WriteConnections renders the connection analysis' exit matrices: one line
// per function with heap pointers, in name order.
func WriteConnections(w io.Writer, r *heapconn.Result) {
	names := make([]string, 0, len(r.Funcs))
	for n := range r.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fr := r.Funcs[n]
		if len(fr.HeapPtrs) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s: %d heap pointers, %d connected pairs (naive %d), %d provably disjoint\n",
			n, len(fr.HeapPtrs), fr.Exit.Len(), fr.NaivePairs, fr.DisjointPairs())
	}
}
