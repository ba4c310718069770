package pointsto_test

import (
	"crypto/sha256"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/pta"
	"repro/internal/ptagen"
	"repro/internal/report"
	"repro/internal/simple"
	"repro/internal/testutil"
	"repro/pointsto"
)

// TestOracleGolden pins what the exhaustive engine computes, the oracle
// every other mode is compared with: for the 17 suite programs, livc and
// the gen-check program (ptagen -preset mid -depth 3 -width 3 -seed 1), the
// SHA-256 of pta.Fingerprint, the recorded facts and the engine counters of
// a serial run, as AnalyzeProgram configures an exhaustive run. The
// fingerprint must also be the same at 2 and 8 workers. The same serial
// run pins the clients in clients.golden: the error and warning counts and
// the SHA-256 of the Check, Races and Taint diagnostics as mccat-pta prints
// them, and the count and SHA-256 of the constants and the SHA-256 of the
// heap connections that -const and -conn print. Rewrite the goldens with -update; any change to them is a change to
// the analysis's or a client's output.
func TestOracleGolden(t *testing.T) {
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

	var sb, clients strings.Builder
	for _, p := range progs {
		var serial string
		for _, w := range []int{1, 2, 8} {
			a, err := pointsto.AnalyzeProgram(p.prog, &pointsto.Config{Workers: w})
			if err != nil {
				t.Fatalf("%s at %d workers: %v", p.name, w, err)
			}
			fp := fmt.Sprintf("%x", sha256.Sum256([]byte(pta.Fingerprint(a.Result))))
			if w > 1 {
				if fp != serial {
					t.Errorf("%s: fingerprint at %d workers %s, serial %s", p.name, w, fp, serial)
				}
				continue
			}
			serial = fp
			m := a.Result.Metrics
			fmt.Fprintf(&sb, "%s fingerprint_sha256=%s facts=%d steps=%d memo_hits=%d memo_misses=%d node_evals=%d peak_set=%d\n",
				p.name, fp, a.Result.Annots.TotalFacts(), m.Steps, m.MemoHits, m.MemoMisses, m.NodeEvals, m.PeakSet)
			writeClients(t, &clients, p.name, a)
		}
	}
	testutil.Golden(t, filepath.Join("testdata", "oracle.golden"), sb.String())
	testutil.Golden(t, filepath.Join("testdata", "clients.golden"), clients.String())
}

// writeClients appends one clients.golden line for analysis a.
func writeClients(t *testing.T, sb *strings.Builder, name string, a *pointsto.Analysis) {
	t.Helper()
	cd, err := a.Check()
	if err != nil {
		t.Fatalf("%s: check: %v", name, err)
	}
	rd, err := a.Races()
	if err != nil {
		t.Fatalf("%s: race: %v", name, err)
	}
	td, err := a.Taint()
	if err != nil {
		t.Fatalf("%s: taint: %v", name, err)
	}
	sum := func(client string, write func(io.Writer)) {
		h := sha256.New()
		write(h)
		fmt.Fprintf(sb, " %s_sha256=%x", client, h.Sum(nil))
	}
	digest := func(client string, write func(io.Writer), errs, warns int) {
		fmt.Fprintf(sb, " %s_errors=%d %s_warnings=%d", client, errs, client, warns)
		sum(client, write)
	}
	sb.WriteString(name)
	ce, cw := report.DiagCounts(cd)
	digest("check", func(w io.Writer) { report.WriteDiags(w, cd) }, ce, cw)
	re, rw := report.RaceDiagCounts(rd)
	digest("race", func(w io.Writer) { report.WriteRaceDiags(w, rd) }, re, rw)
	te, tw := report.TaintDiagCounts(td)
	digest("taint", func(w io.Writer) { report.WriteTaintDiags(w, td) }, te, tw)
	cp := a.ConstantPropagation()
	fmt.Fprintf(sb, " const_count=%d", len(cp.Constants))
	sum("const", func(w io.Writer) { report.WriteConstants(w, cp) })
	hc := a.HeapConnections()
	sum("conn", func(w io.Writer) { report.WriteConnections(w, hc) })
	sb.WriteString("\n")
}
