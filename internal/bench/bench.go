// Package bench provides the benchmark suite for the reproduction: 17
// synthetic C programs with the names and feature mix of the paper's Table
// 2 workloads, plus the livc function-pointer case study. The original 1994
// sources are not available, so each program is written from scratch in the
// supported C subset to exercise the characteristics the paper describes
// for it (see DESIGN.md's substitution table).
package bench

import (
	"embed"
	"fmt"
	"sort"

	"repro/internal/cc/parser"
	"repro/internal/simple"
	"repro/internal/simplify"
)

//go:embed programs/*.c
var programFS embed.FS

// Program is one benchmark.
type Program struct {
	Name        string
	Description string
}

// Suite lists the benchmarks in the paper's Table 2 order.
var Suite = []Program{
	{"genetic", "Genetic algorithm for sorting (population on the heap)."},
	{"dry", "Dhrystone-style record and string manipulation benchmark."},
	{"clinpack", "C Linpack kernels: array pointers and x[i][j] references."},
	{"config", "Exercises the features of the C language (switch-heavy)."},
	{"toplev", "Compiler-driver style option tables (arrays of pointers)."},
	{"compress", "LZW-style compressor over global tables."},
	{"mway", "m-way graph partitioning with pointer-passed partitions."},
	{"hash", "Chained hash table on the heap."},
	{"misr", "Multiple-input signature registers compared for aliasing errors."},
	{"xref", "Cross-reference tree builder (recursive heap tree)."},
	{"stanford", "Stanford baby benchmarks (queens, towers, sorting; recursive)."},
	{"fixoutput", "A simple line-oriented translator."},
	{"sim", "Local alignment similarity scores with heap matrices."},
	{"travel", "Traveling salesman with greedy heuristics."},
	{"csuite", "Vectorizer test suite: many small single-call functions."},
	{"msc", "Minimum spanning circle of points (recursive, heap points)."},
	{"lws", "Dynamic simulation of flexible water molecules (array-heavy)."},
}

// Livc is the function-pointer case study of §6: 82 functions, three global
// arrays of 24 function pointers each, three indirect call sites.
var Livc = Program{"livc", "Livermore-loops driver through function-pointer tables."}

// Source returns the C source of the named benchmark.
func Source(name string) (string, error) {
	data, err := programFS.ReadFile("programs/" + name + ".c")
	if err != nil {
		return "", fmt.Errorf("bench: unknown benchmark %q: %w", name, err)
	}
	return string(data), nil
}

// Names returns every available benchmark name (suite order, livc last).
func Names() []string {
	out := make([]string, 0, len(Suite)+1)
	for _, p := range Suite {
		out = append(out, p.Name)
	}
	out = append(out, Livc.Name)
	return out
}

// Load parses and simplifies the named benchmark.
func Load(name string) (*simple.Program, error) {
	src, err := Source(name)
	if err != nil {
		return nil, err
	}
	tu, err := parser.Parse(name+".c", src)
	if err != nil {
		return nil, fmt.Errorf("bench %s: %w", name, err)
	}
	prog, err := simplify.Simplify(tu)
	if err != nil {
		return nil, fmt.Errorf("bench %s: %w", name, err)
	}
	return prog, nil
}

// AvailableOnDisk lists the embedded program files (for tests).
func AvailableOnDisk() []string {
	entries, err := programFS.ReadDir("programs")
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		names = append(names, n[:len(n)-2])
	}
	sort.Strings(names)
	return names
}
