package obsv

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Tracer records spans and instant events into per-worker ring buffers. A
// nil *Tracer is a valid, disabled tracer: every method is a cheap no-op,
// which is how the analysis hooks stay near-free when tracing is off.
//
// Each concurrently running goroutine of an analysis owns a distinct Track;
// the tracer maps tracks onto a fixed set of ring shards (track mod shard
// count). Shard slots are written with atomic pointer stores, so even when
// two tracks collide on a shard — or a slow writer races a wrap-around of
// the cursor — emission stays race-free and never blocks.
type Tracer struct {
	start  time.Time
	shards []*Ring
	tracks atomic.Int32
}

// Default tracer geometry.
const (
	// DefaultRingCapacity is the per-shard event capacity when NewTracer
	// is given no explicit size.
	DefaultRingCapacity = 1 << 14
)

// NewTracer returns an enabled tracer with the given number of ring shards
// (0 means GOMAXPROCS) each holding capacity events (0 means
// DefaultRingCapacity).
func NewTracer(shards, capacity int) *Tracer {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	t := &Tracer{start: time.Now(), shards: make([]*Ring, shards)}
	for i := range t.shards {
		t.shards[i] = NewRing(capacity)
	}
	return t
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// NewTrack allocates a fresh track, such as a spare worker track of an
// analysis. Track 0 (the calling goroutine of the analysis) is implicit
// and never returned.
func (t *Tracer) NewTrack() Track {
	if t == nil {
		return 0
	}
	return Track(t.tracks.Add(1))
}

func (t *Tracer) now() int64 { return int64(time.Since(t.start)) }

func (t *Tracer) ring(tk Track) *Ring {
	return t.shards[int(uint32(tk))%len(t.shards)]
}

// Span is an open span handle returned by Begin. The zero Span (from a nil
// tracer) is inert: End is a no-op.
type Span struct {
	t      *Tracer
	track  Track
	cat    Cat
	name   string
	detail string
	start  int64
}

// Begin opens a span on the given track. Callers should guard the
// computation of name/detail arguments behind Enabled when they are not
// constants, and must call End on the returned span.
func (t *Tracer) Begin(tk Track, cat Cat, name, detail string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, track: tk, cat: cat, name: name, detail: detail, start: t.now()}
}

// End closes the span and records it.
func (s Span) End() {
	t := s.t
	if t == nil {
		return
	}
	now := t.now()
	t.ring(s.track).Push(&Event{
		Track: s.track, Cat: s.cat, Name: s.name, Detail: s.detail,
		Start: s.start, Dur: now - s.start,
	})
}

// Instant records a zero-duration marker event on the given track.
func (t *Tracer) Instant(tk Track, cat Cat, name, detail string) {
	if t == nil {
		return
	}
	t.ring(tk).Push(&Event{
		Track: tk, Cat: cat, Name: name, Detail: detail,
		Start: t.now(), Instant: true,
	})
}

// Events returns every surviving event across all shards in start-time
// order. Intended for quiescent reads after the analysis has completed.
func (t *Tracer) Events() []*Event {
	if t == nil {
		return nil
	}
	var out []*Event
	for _, r := range t.shards {
		out = append(out, r.Events()...)
	}
	sortEvents(out)
	return out
}

// Emitted returns the total number of events ever recorded.
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	var n uint64
	for _, r := range t.shards {
		n += r.Pushed()
	}
	return n
}

// Dropped returns the number of events lost to ring overflow (the
// dropped_events counter).
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	var n uint64
	for _, r := range t.shards {
		n += r.Dropped()
	}
	return n
}
