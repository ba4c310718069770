package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/pta"
	"repro/pointsto"
)

// gotoSrc jumps into a loop body, which the structurer cannot eliminate.
const gotoSrc = `int main() {
    int i;
    int *p;
    i = 0;
    goto inner;
    while (i < 10) {
inner:
        p = &i;
        i = i + 1;
    }
    return 0;
}
`

// noMainSrc has a pointer statement on line 4 but no main.
const noMainSrc = `int x;
int *p;
int f() {
    p = &x;
    return 0;
}
`

// TestStatusRule sends each failing request to /v1/check and /v1/query and
// requires the same status from both: 422 when the request is at fault,
// 500 when the engine aborted, with the flight dump named by the
// X-Flight-Dump header, present in the spool and named in the access log.
// Each query resolves unless the case is about the query, so the /v1/query
// leg fails for the intended reason.
func TestStatusRule(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		config *RequestConfig
		query  pointsto.Query
		status int
		// msg is part of the error that names the intended failure.
		msg string
		// queryOnly marks a failure /v1/check's body cannot express.
		queryOnly bool
	}{
		{name: "parse error", src: "int main( {", query: pointsto.Query{Pos: "input.c:1", Var: "p"},
			status: 422, msg: "input.c:1:"},
		{name: "inward goto", src: gotoSrc, query: pointsto.Query{Pos: "input.c:8", Var: "p"},
			status: 422, msg: "requires inward movement"},
		{name: "no main", src: noMainSrc, query: pointsto.Query{Pos: "input.c:4", Var: "p"},
			status: 422, msg: "no main function"},
		{name: "unknown fnptr strategy", src: fig6Src, config: &RequestConfig{FnPtrStrategy: "bogus"},
			query: pointsto.Query{Pos: "input.c:9", Var: "pc"}, status: 422, msg: `strategy "bogus"`},
		{name: "incomplete struct", src: "struct s; int main(){ struct s x; return 0; }",
			query: pointsto.Query{Pos: "input.c:1", Var: "x"}, status: 422, msg: "incomplete type struct s"},
		{name: "unresolvable query", src: querySrc, query: pointsto.Query{Pos: "input.c:999", Var: "p"},
			status: 422, msg: "no statement at input.c:999", queryOnly: true},
		{name: "step budget", src: hogSrc, config: &RequestConfig{MaxSteps: 3, Workers: 1},
			query: pointsto.Query{Pos: "input.c:5", Var: "p"}, status: 500, msg: "exceeded 3 steps"},
	}
	s, logBuf, spoolDir := newTestServer(t)
	h := s.Handler()
	for _, tc := range cases {
		for _, view := range []string{"check", "query"} {
			if tc.queryOnly && view == "check" {
				continue
			}
			t.Run(tc.name+"/"+view, func(t *testing.T) {
				var req any = AnalyzeRequest{Source: tc.src, Config: tc.config}
				if view == "query" {
					req = QueryRequest{Source: tc.src, Config: tc.config, Queries: []pointsto.Query{tc.query}}
				}
				body, err := json.Marshal(req)
				if err != nil {
					t.Fatal(err)
				}
				id := strings.ReplaceAll("status-"+tc.name+"-"+view, " ", "-")
				r := httptest.NewRequest("POST", "/v1/"+view, bytes.NewReader(body))
				r.Header.Set("X-Request-ID", id)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, r)

				var resp struct {
					Error string `json:"error"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatalf("response is not JSON (%v):\n%s", err, rec.Body.String())
				}
				if rec.Code != tc.status || !strings.Contains(resp.Error, tc.msg) {
					t.Fatalf("status %d error %q, want %d with %q", rec.Code, resp.Error, tc.status, tc.msg)
				}
				dump := rec.Header().Get("X-Flight-Dump")
				if tc.status != http.StatusInternalServerError {
					if dump != "" {
						t.Errorf("caller fault spooled a flight dump %q", dump)
					}
					return
				}
				if dump != id+".flight.txt" {
					t.Fatalf("X-Flight-Dump = %q, want %q", dump, id+".flight.txt")
				}
				if _, err := os.Stat(filepath.Join(spoolDir, dump)); err != nil {
					t.Errorf("dump not spooled: %v", err)
				}
				if got := accessLogField(t, logBuf.String(), id, "flight_dump"); got != dump {
					t.Errorf("access log flight_dump = %v, want %q", got, dump)
				}
			})
		}
	}
}

// accessLogField returns a field of the access-log line for request id.
func accessLogField(t *testing.T, log, id, field string) any {
	t.Helper()
	for _, line := range strings.Split(log, "\n") {
		var entry map[string]any
		if json.Unmarshal([]byte(line), &entry) == nil && entry["request_id"] == id && entry["msg"] == "request" {
			return entry[field]
		}
	}
	t.Fatalf("no access-log line for %q:\n%s", id, log)
	return nil
}

// TestConcurrentSharedParse sends /v1/check, /v1/race, /v1/taint and
// /v1/query requests for one source at once. They all run on the one
// program the parse cache holds for it, so the race detector sees any state
// an analysis or a client builds lazily on a shared program.
func TestConcurrentSharedParse(t *testing.T) {
	src, err := os.ReadFile("../../examples/check/uaf.c")
	if err != nil {
		t.Fatal(err)
	}
	analyze, err := json.Marshal(AnalyzeRequest{Filename: "uaf.c", Source: string(src)})
	if err != nil {
		t.Fatal(err)
	}
	query, err := json.Marshal(QueryRequest{Filename: "uaf.c", Source: string(src),
		Queries: []pointsto.Query{{Pos: "uaf.c:9", Var: "p"}}})
	if err != nil {
		t.Fatal(err)
	}
	s, _, _ := newTestServer(t)
	h := s.Handler()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		bodies := map[string][]byte{"/v1/check": analyze, "/v1/race": analyze, "/v1/taint": analyze, "/v1/query": query}
		for path, body := range bodies {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Errorf("%s = %d: %s", path, rec.Code, rec.Body.String())
				}
			}()
		}
	}
	wg.Wait()
}

// TestConfigTranslation checks the one RequestConfig translation: every
// view, /v1/query included, gets every knob — the stall watchdog too —
// with workers and the step budget clamped to the server's caps.
func TestConfigTranslation(t *testing.T) {
	s, err := New(Config{SpoolDir: t.TempDir(), AnalysisWorkers: 2, MaxSteps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	queries := []pointsto.Query{{Pos: "input.c:1", Var: "p"}}
	req := &QueryRequest{Queries: queries, Config: &RequestConfig{
		FnPtrStrategy: "addr-taken", NoDefinite: true, SingleArrayLoc: true, NoMemo: true,
		ContextInsensitive: true, Workers: 8, MaxSteps: 5000, StallWindowMS: 50, StallKill: true,
	}}
	for _, view := range views {
		want := pointsto.Config{
			FnPtrStrategy: "addr-taken", NoDefinite: true, SingleArrayLoc: true, NoMemo: true,
			ContextInsensitive: true, Workers: 2, MaxSteps: 1000,
			StallWindow: 50 * time.Millisecond, StallKill: true,
		}
		if view == "query" {
			want.Demand, want.Queries = true, queries
		}
		if got := s.config(view, req); !reflect.DeepEqual(*got, want) {
			t.Errorf("%s: config = %+v, want %+v", view, *got, want)
		}
	}

	// With no server ceiling (-max-steps 0, the default) the engine default
	// is the ceiling: a request may lower the budget but not raise it.
	s, err = New(Config{SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ ask, want int }{
		{0, pta.DefaultMaxSteps},
		{1000, 1000},
		{2_000_000_000, pta.DefaultMaxSteps},
	} {
		req := &QueryRequest{Config: &RequestConfig{MaxSteps: tc.ask}}
		if got := s.config("analyze", req).MaxSteps; got != tc.want {
			t.Errorf("uncapped server, max_steps %d: budget %d, want %d", tc.ask, got, tc.want)
		}
	}
}
