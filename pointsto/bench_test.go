package pointsto_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/ptagen"
	"repro/pointsto"
)

// BenchmarkCheckVerdict times a check verdict as a caller waits for it:
// AnalyzeSource at one worker, then Check. It runs on the gen-check program
// (ptagen -preset mid -depth 3 -width 3 -seed 1, the e2ebench gen-check
// input) and on livc, the largest suite program. Run it with
//
//	go test -run '^$' -bench CheckVerdict -benchmem ./pointsto
func BenchmarkCheckVerdict(b *testing.B) {
	cfg := ptagen.Presets["mid"]
	cfg.Depth, cfg.Width, cfg.Seed = 3, 3, 1
	gen, _ := ptagen.Generate(cfg)
	livc, err := bench.Source("livc")
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []struct{ name, src string }{
		{"gen-check", gen},
		{"livc", livc},
	} {
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
