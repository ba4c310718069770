// Package obsv is the observability layer of the points-to engine: a
// structured trace recorder, a metrics registry, and exporters for both.
//
// The trace recorder collects hierarchical spans — invocation-graph node
// evaluations, map/unmap operations, basic-statement transfers, fixed-point
// iterations, fan-out branches run on spare workers — into bounded
// lock-free ring buffers (one shard per worker track), so emission never
// blocks an analysis worker and overflow drops the oldest spans rather than
// growing without bound.
// With tracing disabled (a nil *Tracer) every hook reduces to a nil check.
//
// The metrics registry is a set of typed, atomically-updated instruments
// (counters, a max gauge, power-of-two histograms, per-function cost
// accumulators) that the analysis updates on its hot paths and snapshots
// into pta.Result.Metrics when a run completes.
//
// Exporters render a completed trace as Chrome trace_event JSON (load the
// file in chrome://tracing or https://ui.perfetto.dev) or as a JSONL event
// stream, and a metrics snapshot as JSON. The human-readable per-function
// cost table lives in package report, next to the paper's tables.
//
// The package is zero-dependency (standard library only) and fully
// decoupled from the analysis: it never influences analysis results, which
// the determinism guard in package pta enforces by fingerprint comparison.
package obsv

import "strconv"

// Track identifies one logical execution lane of the analysis: track 0 is
// the goroutine that called Analyze, and a run with W workers owns W-1
// spare tracks that fan-out branch goroutines take and hand back. Only one
// goroutine holds a track at a time, so spans on one track are properly
// nested and trace viewers can render each track as a timeline row.
type Track int32

// Cat classifies trace events by the engine operation they measure.
type Cat uint8

// Event categories.
const (
	// CatPhase marks coarse analysis phases (global initialization, the
	// main invocation tree, canonicalization).
	CatPhase Cat = iota
	// CatNode is the evaluation of one invocation-graph node, including
	// memoized lookups (which show up as near-zero-width spans).
	CatNode
	// CatMap is a map_process operation at a call site (caller set to
	// callee input, paper §4.1).
	CatMap
	// CatUnmap is an unmap_process operation (callee output back to the
	// call site).
	CatUnmap
	// CatBasic is one basic-statement transfer function.
	CatBasic
	// CatFixpoint is one iteration of a recursion fixed point, or an
	// instant event for a pending-list generalization restart.
	CatFixpoint
	// CatWorker is parallel fan-out: a "task" span per branch that runs
	// on a spare worker track. Branches the forking goroutine runs inline
	// emit none.
	CatWorker
)

var catNames = [...]string{
	CatPhase:    "phase",
	CatNode:     "node",
	CatMap:      "map",
	CatUnmap:    "unmap",
	CatBasic:    "basic",
	CatFixpoint: "fixpoint",
	CatWorker:   "worker",
}

func (c Cat) String() string {
	if int(c) < len(catNames) {
		return catNames[c]
	}
	return "cat" + strconv.Itoa(int(c))
}

// Event is one recorded trace event: a completed span (Dur >= 0 covers
// [Start, Start+Dur]) or an instant marker (Instant true, Dur 0). Times are
// nanoseconds since the tracer was created.
type Event struct {
	Track   Track
	Cat     Cat
	Name    string // operation (function name, statement kind, phase)
	Detail  string // free-form qualifier (position, node kind, iteration)
	Start   int64  // ns since trace start
	Dur     int64  // ns
	Instant bool
}
