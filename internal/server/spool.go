package server

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// The spool holds per-request flight-record dumps. The engine dumps a
// flight record when a run panics, exceeds its step budget, or stalls; for
// a server that must outlive any one request, those dumps go to files named
// by request ID instead of a shared stderr, so a dump can be found from the
// access-log line (and the response body) that references it.
type spool struct {
	dir string
}

func newSpool(dir string) (*spool, error) {
	if dir == "" {
		return nil, fmt.Errorf("server: empty spool dir")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: create spool dir: %w", err)
	}
	return &spool{dir: dir}, nil
}

// dumpName is the spool file name for a request ID (also the value
// surfaced in responses and access logs).
func (s *spool) dumpName(id string) string { return id + ".flight.txt" }

// path resolves a dump name inside the spool dir.
func (s *spool) path(name string) string { return filepath.Join(s.dir, name) }

// writer returns a lazy writer for the request: the spool file is created
// on first write only, so healthy requests leave no file behind.
func (s *spool) writer(id string) *lazyFile {
	return &lazyFile{path: s.path(s.dumpName(id))}
}

// lazyFile creates its file on first Write. It is the writer of the
// request's flight recorder, which the engine may write from its run
// monitor or a worker goroutine while the handler is still running, so
// writes are serialized.
type lazyFile struct {
	path string

	mu    sync.Mutex
	f     *os.File
	err   error
	wrote bool
}

func (l *lazyFile) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	if l.f == nil {
		l.f, l.err = os.Create(l.path)
		if l.err != nil {
			return 0, l.err
		}
	}
	l.wrote = true
	return l.f.Write(p)
}

// close flushes and reports whether anything was spooled.
func (l *lazyFile) close() (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return false, l.err
	}
	err := l.f.Close()
	l.f = nil
	return l.wrote, err
}
