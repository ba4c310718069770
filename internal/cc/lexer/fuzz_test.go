package lexer

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cc/token"
)

// FuzzTokenize checks that Tokenize returns on any input, with at most one
// token per source byte plus the expansion budget, the last one EOF. It is
// seeded with both macro reproducers and every C file under examples/ and
// the benchmark programs. Run it with
//
//	go test -run '^$' -fuzz FuzzTokenize -fuzztime 30s ./internal/cc/lexer
func FuzzTokenize(f *testing.F) {
	f.Add("#define A x A\nint main() { return A; }\n")
	f.Add(chainSource())
	for _, pattern := range []string{"../../../examples/*/*.c", "../../bench/programs/*.c"} {
		files, err := filepath.Glob(pattern)
		if err != nil || len(files) == 0 {
			f.Fatalf("no seed files match %s (%v)", pattern, err)
		}
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src))
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks, _ := Tokenize("fuzz.c", src)
		if n := len(toks); n == 0 || n > len(src)+maxExpanded || toks[n-1].Kind != token.EOF {
			t.Fatalf("%d tokens for %d bytes, want 1 to %d ending in EOF", n, len(src), len(src)+maxExpanded)
		}
	})
}
