package pta

import (
	"bytes"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/obsv"
	"repro/internal/ptagen"
)

// freezeWatchdogProgress installs a progress source that never advances, so
// the monitor sees a stall on an analysis that is in fact progressing.
// Restores the real source on cleanup.
func freezeWatchdogProgress(t *testing.T) {
	t.Helper()
	setWatchdogProgress(t, func() int64 { return 0 })
}

func setWatchdogProgress(t *testing.T, progress func() int64) {
	t.Helper()
	testWatchdogProgress = progress
	t.Cleanup(func() { testWatchdogProgress = nil })
}

// TestWatchdogKillAbortsRun is the end-to-end stall-abort path: frozen
// progress, a short window and StallKill must abort the analysis with the
// watchdog error, after writing the stall report and the flight record.
func TestWatchdogKillAbortsRun(t *testing.T) {
	freezeWatchdogProgress(t)
	prog, _, err := ptagen.Load(ptagen.Default())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, err = Analyze(prog, Options{
		Workers:     2,
		Flight:      obsv.NewFlightRecorder(&buf),
		StallWindow: 10 * time.Millisecond,
		StallKill:   true,
	})
	if err == nil || !strings.Contains(err.Error(), "aborted by stall watchdog") {
		t.Fatalf("err = %v, want stall-watchdog abort", err)
	}
	out := buf.String()
	if !strings.Contains(out, "=== stall watchdog: no progress for") {
		t.Errorf("missing stall report header:\n%.2000s", out)
	}
	if !strings.Contains(out, "goroutine ") {
		t.Error("stall report missing goroutine stacks")
	}
	if !strings.Contains(out, "=== flight record: stall after") {
		t.Error("stall report missing flight record")
	}
}

// TestWatchdogWarnOnly: without StallKill a stall produces the report but
// the analysis runs to completion and returns a result.
func TestWatchdogWarnOnly(t *testing.T) {
	freezeWatchdogProgress(t)
	prog, _, err := ptagen.Load(ptagen.Presets["small"])
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res, err := Analyze(prog, Options{
		Workers:     2,
		Flight:      obsv.NewFlightRecorder(&buf),
		StallWindow: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("warn-only stall must not abort: %v", err)
	}
	if res.Metrics.Steps == 0 {
		t.Error("analysis reported no steps")
	}
	if !strings.Contains(buf.String(), "=== stall watchdog: no progress for") {
		t.Errorf("no stall report written:\n%.2000s", buf.String())
	}
}

// stallLog is the writer of a monitor test's flight recorder. It keeps the
// header line of every stall report written to it and calls onStall after
// each, from the monitor goroutine, before the monitor polls again.
type stallLog struct {
	mu      sync.Mutex
	headers []string
	onStall func(n int)
}

func (l *stallLog) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, []byte("=== stall watchdog:")) {
		l.mu.Lock()
		l.headers = append(l.headers, string(p))
		n := len(l.headers)
		l.mu.Unlock()
		if l.onStall != nil {
			l.onStall(n)
		}
	}
	return len(p), nil
}

func (l *stallLog) stalls() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.headers...)
}

// startTestMonitor starts the monitor of an analyzer that runs nothing: it
// reads progress from progress and reports stalls of window to log. The
// returned function stops it.
func startTestMonitor(t *testing.T, window time.Duration, progress func() int64, log *stallLog) func() {
	t.Helper()
	setWatchdogProgress(t, progress)
	a := &analyzer{m: obsv.NewMetrics(), opts: Options{Flight: obsv.NewFlightRecorder(log), StallWindow: window}}
	return a.startMonitor()
}

// waitFor polls cond for up to 2 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// monitorGoroutines counts the live goroutines startMonitor created, by
// the "created by" line that ends each goroutine's stack.
func monitorGoroutines() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "created by repro/internal/pta.(*analyzer).startMonitor ")
}

// TestMonitorStallFiresOnce: frozen progress is reported once the window
// has passed, with the stuck value, and a persistent stall is reported
// once, not once per poll.
func TestMonitorStallFiresOnce(t *testing.T) {
	var progress atomic.Int64
	progress.Store(7)
	log := &stallLog{}
	stop := startTestMonitor(t, 20*time.Millisecond, progress.Load, log)
	defer stop()

	waitFor(t, "a stall report on frozen progress", func() bool { return len(log.stalls()) > 0 })
	header := log.stalls()[0]
	if !strings.Contains(header, "(stuck at 7 steps)") {
		t.Errorf("stall report at the wrong progress: %q", header)
	}
	rest, _ := strings.CutPrefix(header, "=== stall watchdog: no progress for ")
	if d, err := time.ParseDuration(rest[:strings.Index(rest, " ")]); err != nil || d < 20*time.Millisecond {
		t.Errorf("stalled %v (%v), want >= the 20ms window: %q", d, err, header)
	}

	time.Sleep(100 * time.Millisecond)
	if n := len(log.stalls()); n != 1 {
		t.Errorf("persistent stall reported %d times, want 1", n)
	}
}

// TestMonitorRearmsAfterProgress: progress moves once and freezes again,
// so the monitor must re-arm and report a second episode.
func TestMonitorRearmsAfterProgress(t *testing.T) {
	var progress atomic.Int64
	// Resume progress from the first report, so the re-arm is race-free.
	log := &stallLog{onStall: func(n int) {
		if n == 1 {
			progress.Add(1)
		}
	}}
	stop := startTestMonitor(t, 15*time.Millisecond, progress.Load, log)
	defer stop()
	waitFor(t, "a second stall episode after progress resumed", func() bool { return len(log.stalls()) >= 2 })
}

// TestMonitorNoStallWhileProgressing: a counter that keeps advancing is
// never reported.
func TestMonitorNoStallWhileProgressing(t *testing.T) {
	var progress atomic.Int64
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			default:
				progress.Add(1)
				time.Sleep(time.Millisecond)
			}
		}
	}()
	log := &stallLog{}
	stop := startTestMonitor(t, 50*time.Millisecond, progress.Load, log)
	time.Sleep(200 * time.Millisecond)
	stop()
	close(quit)
	<-done
	if n := len(log.stalls()); n != 0 {
		t.Errorf("monitor reported %d stalls on live progress", n)
	}
}

// TestMonitorStallReportToStderr: without a flight recorder the stall
// report goes to os.Stderr.
func TestMonitorStallReportToStderr(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	defer func() { os.Stderr = saved }()

	freezeWatchdogProgress(t)
	a := &analyzer{m: obsv.NewMetrics(), opts: Options{StallWindow: 10 * time.Millisecond}}
	stop := a.startMonitor()
	waitFor(t, "a stall report on os.Stderr", func() bool {
		data, _ := os.ReadFile(f.Name())
		return bytes.Contains(data, []byte("=== stall watchdog: no progress for"))
	})
	stop()
}

// TestMonitorStartsOneGoroutine: a run starts one monitor goroutine when
// Flight or StallWindow is set and none otherwise, and a run with both set
// leaves no goroutine behind once Analyze returns.
func TestMonitorStartsOneGoroutine(t *testing.T) {
	for _, tc := range []struct {
		flight bool
		window time.Duration
		want   int
	}{{false, 0, 0}, {true, 0, 1}, {false, time.Hour, 1}, {true, time.Hour, 1}} {
		a := &analyzer{m: obsv.NewMetrics(), opts: Options{StallWindow: tc.window}}
		if tc.flight {
			a.opts.Flight = obsv.NewFlightRecorder(io.Discard)
		}
		stop := a.startMonitor()
		if got := monitorGoroutines(); got != tc.want {
			t.Errorf("flight=%v window=%v: %d monitor goroutines, want %d", tc.flight, tc.window, got, tc.want)
		}
		stop()
		waitFor(t, "the monitor to exit", func() bool { return monitorGoroutines() == 0 })
	}

	prog, err := bench.Load("livc")
	if err != nil {
		t.Fatal(err)
	}
	m := obsv.NewMetrics()
	var midRun atomic.Int64
	var once sync.Once
	// The monitor reads progress as soon as it starts, while the run is
	// still going.
	setWatchdogProgress(t, func() int64 {
		once.Do(func() { midRun.Store(int64(monitorGoroutines())) })
		return m.Steps.Load()
	})
	before := runtime.NumGoroutine()
	if _, err := Analyze(prog, Options{
		Workers: 8, Metrics: m, Flight: obsv.NewFlightRecorder(io.Discard), StallWindow: time.Hour,
	}); err != nil {
		t.Fatal(err)
	}
	if got := midRun.Load(); got != 1 {
		t.Errorf("%d monitor goroutines during the run, want 1", got)
	}
	waitFor(t, "the goroutine count to return to its pre-run value", func() bool {
		return runtime.NumGoroutine() <= before
	})
}
