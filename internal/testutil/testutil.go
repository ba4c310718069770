// Package testutil is the shared golden-fixture harness for the analysis
// clients (check, race, taint): fixture discovery over an examples/
// subdirectory, source-to-Analysis helpers, diagnostic rendering, golden
// file comparison with the conventional -update flag, and the annotation
// invariants the differential matrices assert.
package testutil

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/pta"
	"repro/internal/pta/ptset"
	"repro/internal/simple"
	"repro/pointsto"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// FixtureDir resolves an examples/ subdirectory relative to the repo root,
// which for a test binary is two levels above the package directory.
func FixtureDir(parts ...string) string {
	return filepath.Join(append([]string{"..", "..", "examples"}, parts...)...)
}

// Fixtures lists the .c files of a fixture directory, sorted by name.
func Fixtures(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("fixture dir %s: %v", dir, err)
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".c") {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out
}

// AnalyzeFile parses and analyzes one C file through the public API.
func AnalyzeFile(t *testing.T, path string) *pointsto.Analysis {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a, err := pointsto.AnalyzeSource(filepath.Base(path), string(data), nil)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return a
}

// AnalyzeSrc analyzes in-memory source through the public API.
func AnalyzeSrc(t *testing.T, name, src string) *pointsto.Analysis {
	t.Helper()
	a, err := pointsto.AnalyzeSource(name, src, nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return a
}

// Render stringifies a diagnostic slice, one line per entry.
func Render[D fmt.Stringer](diags []D) []string {
	out := make([]string, len(diags))
	for i, d := range diags {
		out[i] = d.String()
	}
	return out
}

// Golden compares got against the golden file at path; with -update the file
// is rewritten instead. A missing golden file fails unless -update is given.
// An empty got is stored as an empty file.
func Golden(t *testing.T, path string, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatalf("update golden %s: %v", path, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden %s: %v (run with -update to create)", path, err)
	}
	if got != string(want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s--- want ---\n%s", filepath.Base(path), got, want)
	}
}

// GoldenLines is Golden over a line slice, normalizing the trailing newline.
func GoldenLines(t *testing.T, path string, lines []string) {
	t.Helper()
	got := ""
	if len(lines) > 0 {
		got = strings.Join(lines, "\n") + "\n"
	}
	Golden(t, path, got)
}

// ContextsJoinToMerge checks that at every statement of a result recorded
// with calling contexts, the join of the per-context inputs is the merged
// input, and that a statement has contexts exactly when it has a merge.
func ContextsJoinToMerge(t *testing.T, res *pta.Result) {
	t.Helper()
	i := 0
	res.Prog.ForEachBasic(func(b *simple.Basic) {
		i++
		merged, ok := res.Annots.At(b)
		ctxs := res.Annots.ContextsAt(b)
		if ok != (len(ctxs) > 0) {
			t.Errorf("stmt %d @%v: merge recorded %v, but %d contexts", i, b.Pos, ok, len(ctxs))
			return
		}
		join := ptset.NewBottom()
		for _, s := range ctxs {
			join = ptset.Merge(join, s)
		}
		if ok && !ptset.Equal(join, merged) {
			t.Errorf("stmt %d @%v: join of %d contexts %s != merge %s", i, b.Pos, len(ctxs), join, merged)
		}
	})
}
