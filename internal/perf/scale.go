package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/bench"
	"repro/internal/cc/parser"
	"repro/internal/pta"
	"repro/internal/ptagen"
	"repro/internal/simple"
	"repro/internal/simplify"
)

// This file implements the -scale mode: wall-time trajectories of the same
// analysis at increasing worker counts, with the fan-out and lock counters
// that explain where the time went. The committed artifact is
// BENCH_scale.json.

// ScalePoint is one (program, worker count) measurement.
type ScalePoint struct {
	Workers int     `json:"workers"`
	WallMS  float64 `json:"wall_ms"` // best of Repeats runs

	// Speedup is the workers=1 wall time of the same program divided by
	// this point's wall time.
	Speedup float64 `json:"speedup"`

	// Identical reports that this point's canonical result fingerprint is
	// byte-identical to the workers=1 fingerprint.
	Identical bool `json:"identical"`

	// Steps is the basic-statement evaluation count at this worker count.
	// The *result* is bit-identical at every worker count, but the effort
	// to reach it need not be: evaluation order changes how fast recursive
	// fixpoints converge and which memo entries exist when a context is
	// re-entered, so steps can differ between worker counts (and explain
	// wall-time differences that hardware parallelism cannot, e.g. on a
	// single-CPU host).
	Steps int64 `json:"steps"`

	// Fan-out activity: branches forked, and branches that ran on a spare
	// worker track rather than on the forking goroutine.
	SchedTasks  int64 `json:"sched_tasks"`
	SchedSteals int64 `json:"sched_steals"`

	// LocContended counts location-table lock acquisitions that found the
	// lock already held.
	LocContended int64 `json:"loc_contended"`
}

// ScaleProgram is the trajectory of one program across the worker set.
type ScaleProgram struct {
	Name string `json:"name"`
	// Source records where the program came from: "builtin" (bench suite),
	// "file" (-scale-file) or "ptagen" (generated in-process).
	Source      string `json:"source"`
	Functions   int    `json:"functions"`
	SourceStmts int    `json:"source_stmts"`
	Steps       int    `json:"steps"` // basic-statement evaluations at workers=1

	Points []ScalePoint `json:"points"`

	// Identical is the conjunction of every point's Identical flag.
	Identical bool `json:"identical"`
}

// ScaleReport is the machine-readable scaling report (BENCH_scale.json).
type ScaleReport struct {
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"num_cpu"`
	Repeats    int            `json:"repeats"`
	Host       HostInfo       `json:"host"`
	WorkerSet  []int          `json:"worker_set"`
	Programs   []ScaleProgram `json:"programs"`
}

// ScaleTarget is one program to measure.
type ScaleTarget struct {
	Name   string
	Source string
	Prog   *simple.Program
}

// ScaleTargetFromBench loads a builtin benchmark program.
func ScaleTargetFromBench(name string) (ScaleTarget, error) {
	prog, err := bench.Load(name)
	if err != nil {
		return ScaleTarget{}, err
	}
	return ScaleTarget{Name: name, Source: "builtin", Prog: prog}, nil
}

// ScaleTargetFromFile parses a C file from disk (e.g. one emitted by
// cmd/ptagen).
func ScaleTargetFromFile(path string) (ScaleTarget, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return ScaleTarget{}, err
	}
	tu, err := parser.Parse(path, string(src))
	if err != nil {
		return ScaleTarget{}, fmt.Errorf("%s: %w", path, err)
	}
	prog, err := simplify.Simplify(tu)
	if err != nil {
		return ScaleTarget{}, fmt.Errorf("%s: %w", path, err)
	}
	return ScaleTarget{Name: path, Source: "file", Prog: prog}, nil
}

// ScaleTargetFromGen generates a program in-process from a ptagen
// configuration.
func ScaleTargetFromGen(cfg ptagen.Config) (ScaleTarget, error) {
	prog, meta, err := ptagen.Load(cfg)
	if err != nil {
		return ScaleTarget{}, err
	}
	return ScaleTarget{Name: meta.Name, Source: "ptagen", Prog: prog}, nil
}

// RunScale measures each target at every worker count in workerSet (default
// 1, 2, 4, 8; a leading 1 is forced since it is the speedup baseline and the
// fingerprint reference), keeping the best of repeats wall times, and
// records the scheduler and lock-contention counters of the best-timed run.
func RunScale(targets []ScaleTarget, workerSet []int, repeats int) (*ScaleReport, error) {
	if len(workerSet) == 0 {
		workerSet = []int{1, 2, 4, 8}
	}
	if workerSet[0] != 1 {
		workerSet = append([]int{1}, workerSet...)
	}
	if repeats <= 0 {
		repeats = 1
	}
	rep := &ScaleReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Repeats:    repeats,
		Host:       CurrentHost(),
		WorkerSet:  workerSet,
	}
	for _, t := range targets {
		sp := ScaleProgram{
			Name:        t.Name,
			Source:      t.Source,
			Functions:   len(t.Prog.Functions),
			SourceStmts: t.Prog.NumStmts,
			Identical:   true,
		}
		var baseWall float64
		var baseFP string
		for _, w := range workerSet {
			res, wall, err := timeAnalysis(t.Prog, pta.Options{Workers: w}, repeats)
			if err != nil {
				return nil, fmt.Errorf("%s workers=%d: %w", t.Name, w, err)
			}
			pt := ScalePoint{Workers: w, WallMS: wall}
			if m := res.Metrics; m != nil {
				pt.Steps = m.Steps
				pt.SchedTasks = m.SchedTasks
				pt.SchedSteals = m.SchedSteals
				pt.LocContended = m.LocContended
			}
			fp := pta.Fingerprint(res)
			if w == 1 {
				baseWall, baseFP = wall, fp
				sp.Steps = int(res.Metrics.Steps)
			}
			pt.Identical = fp == baseFP
			if pt.WallMS > 0 {
				pt.Speedup = baseWall / pt.WallMS
			}
			sp.Identical = sp.Identical && pt.Identical
			sp.Points = append(sp.Points, pt)
		}
		rep.Programs = append(rep.Programs, sp)
	}
	return rep, nil
}

// WriteJSON emits the report as indented JSON.
func (r *ScaleReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteTable renders the report as an aligned text table, one line per
// (program, worker count).
func (r *ScaleReport) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "scaling trajectory (gomaxprocs=%d, cpus=%d, best of %d runs)\n\n",
		r.GOMAXPROCS, r.NumCPU, r.Repeats)
	fmt.Fprintf(w, "%-24s %8s %10s %8s %9s %9s %8s %10s %5s\n",
		"program", "workers", "wall", "speedup", "steps", "tasks", "steals", "loc-cd", "ok")
	for _, p := range r.Programs {
		for _, pt := range p.Points {
			fmt.Fprintf(w, "%-24s %8d %8.1fms %7.2fx %9d %9d %8d %10d %5v\n",
				p.Name, pt.Workers, pt.WallMS, pt.Speedup, pt.Steps,
				pt.SchedTasks, pt.SchedSteals, pt.LocContended, pt.Identical)
		}
	}
}
