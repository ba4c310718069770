package pointsto_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/ptagen"
	"repro/pointsto"
)

type benchProgram struct{ name, src string }

// benchPrograms returns the gen-check program (ptagen -preset mid -depth 3
// -width 3 -seed 1, the e2ebench gen-check input) and livc, the largest
// suite program.
func benchPrograms(b *testing.B) []benchProgram {
	cfg := ptagen.Presets["mid"]
	cfg.Depth, cfg.Width, cfg.Seed = 3, 3, 1
	gen, _ := ptagen.Generate(cfg)
	livc, err := bench.Source("livc")
	if err != nil {
		b.Fatal(err)
	}
	return []benchProgram{{"gen-check", gen}, {"livc", livc}}
}

// BenchmarkCheckVerdict times a check verdict as a caller waits for it:
// AnalyzeSource at one worker, then Check, on the gen-check program and
// livc. Run it with
//
//	go test -run '^$' -bench CheckVerdict -benchmem ./pointsto
func BenchmarkCheckVerdict(b *testing.B) {
	for _, p := range benchPrograms(b) {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a, err := pointsto.AnalyzeSource(p.name+".c", p.src, &pointsto.Config{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := a.Check(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClientVerdicts times the race and taint clients alone: it
// analyzes the gen-check program and livc once at one worker, outside the
// timer, then runs Races or Taint on that analysis. Run it with
//
//	go test -run '^$' -bench ClientVerdicts -benchmem ./pointsto
func BenchmarkClientVerdicts(b *testing.B) {
	for _, p := range benchPrograms(b) {
		a, err := pointsto.AnalyzeSource(p.name+".c", p.src, &pointsto.Config{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range []struct {
			name string
			run  func() error
		}{
			{"race", func() error { _, err := a.Races(); return err }},
			{"taint", func() error { _, err := a.Taint(); return err }},
		} {
			b.Run(p.name+"/"+c.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := c.run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
