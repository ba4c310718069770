package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// waitFor polls until cond is true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestServerLifecycle drives the daemon end to end: start on an ephemeral
// port, wait for readiness, analyze one program, then deliver the shutdown
// signal and require a clean graceful exit.
func TestServerLifecycle(t *testing.T) {
	stdout, stderr := &syncBuffer{}, &syncBuffer{}
	sigs := make(chan os.Signal, 1)
	codeCh := make(chan int, 1)
	go func() {
		codeCh <- run([]string{
			"-addr", "127.0.0.1:0",
			"-spool", t.TempDir(),
			"-log-json",
		}, stdout, stderr, sigs)
	}()

	// The bound address is announced on stdout.
	var base string
	waitFor(t, "listen line", func() bool {
		out := stdout.String()
		i := strings.Index(out, "listening on ")
		if i < 0 {
			return false
		}
		base = "http://" + strings.TrimSpace(out[i+len("listening on "):])
		return true
	})

	waitFor(t, "readiness", func() bool {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		return resp.StatusCode == 200
	})

	body := `{"filename":"t.c","source":"int g; int *p; int main() { p = &g; return 0; }"}`
	resp, err := http.Post(base+"/v1/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ar struct {
		RequestID string `json:"request_id"`
		PointsTo  []any  `json:"points_to"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || len(ar.PointsTo) == 0 {
		t.Fatalf("analyze: status %d, %d triples", resp.StatusCode, len(ar.PointsTo))
	}
	if ar.RequestID == "" {
		t.Error("no request id in response")
	}

	sigs <- os.Interrupt
	select {
	case code := <-codeCh:
		if code != 0 {
			t.Fatalf("exit code %d after graceful signal; stderr:\n%s", code, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit after signal")
	}

	// The structured log saw the whole lifecycle.
	log := stderr.String()
	for _, want := range []string{`"msg":"listening"`, `"msg":"request"`, ar.RequestID, `"msg":"stopped"`} {
		if !strings.Contains(log, want) {
			t.Errorf("log missing %q:\n%s", want, log)
		}
	}
}

func TestBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-log-level", "shouty"}, &out, &errb, nil); code != 2 {
		t.Errorf("bad -log-level exit = %d, want 2", code)
	}
	if code := run([]string{"-nonsense"}, &out, &errb, nil); code != 2 {
		t.Errorf("unknown flag exit = %d, want 2", code)
	}
}

// TestNegativeMaxStepsIsUsageError: a negative step-budget ceiling is a
// usage error, not a server that reports ready and fails every request.
// The shutdown signal is already queued, so a regression returns promptly.
func TestNegativeMaxStepsIsUsageError(t *testing.T) {
	var out bytes.Buffer
	errb := &syncBuffer{}
	sigs := make(chan os.Signal, 1)
	sigs <- os.Interrupt
	code := run([]string{"-addr", "127.0.0.1:0", "-spool", t.TempDir(), "-max-steps", "-1"}, &out, errb, sigs)
	if code != 2 || out.Len() != 0 || !strings.Contains(errb.String(), "-max-steps") {
		t.Errorf("-max-steps -1: code=%d stdout=%q stderr=%q, want 2 naming the flag", code, out.String(), errb.String())
	}
}

func TestListenFailure(t *testing.T) {
	var out bytes.Buffer
	errb := &syncBuffer{}
	if code := run([]string{"-addr", "256.256.256.256:1", "-spool", t.TempDir()}, &out, errb, nil); code != 1 {
		t.Errorf("unlistenable addr exit = %d, want 1", code)
	}
	if !strings.Contains(errb.String(), `"msg":"listen"`) {
		t.Errorf("listen failure not logged:\n%s", errb.String())
	}
}
