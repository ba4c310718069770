package pta

import (
	"repro/internal/pta/loc"
	"repro/internal/simple"
)

// AnalyzeOnTable runs the analysis with locations interned in tab, a table
// made for prog, so an external test can choose the IDs a run sees.
func AnalyzeOnTable(prog *simple.Program, opts Options, tab *loc.Table) (*Result, error) {
	return analyze(prog, opts, tab)
}
