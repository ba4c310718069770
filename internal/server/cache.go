package server

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"repro/internal/cc/parser"
	"repro/internal/simple"
	"repro/internal/simplify"
)

// parseCache keeps recently parsed+simplified programs keyed by the SHA-256
// of (filename, source), so every request of a session over one source —
// /v1/check, /v1/race, /v1/taint and its queries — shares one parse.
// Entries are evicted FIFO beyond cap. One cached program backs any number
// of concurrent engine runs: after simplification a *simple.Program is only
// read, except for its function index, which Program.Lookup builds under a
// sync.Once. The per-entry once guards the build so concurrent first
// requests for the same source parse once.
type parseCache struct {
	mu    sync.Mutex
	cap   int
	order []string
	m     map[string]*parseEntry
}

type parseEntry struct {
	once sync.Once
	prog *simple.Program
	err  error
}

func newParseCache(capacity int) *parseCache {
	if capacity <= 0 {
		capacity = 16
	}
	return &parseCache{cap: capacity, m: make(map[string]*parseEntry)}
}

// get returns the program for (filename, source), building and caching it
// on first use. hit reports whether the parse was already cached.
func (c *parseCache) get(filename, source string) (prog *simple.Program, err error, hit bool) {
	sum := sha256.Sum256([]byte(filename + "\x00" + source))
	key := hex.EncodeToString(sum[:])
	c.mu.Lock()
	e, ok := c.m[key]
	if !ok {
		e = &parseEntry{}
		c.m[key] = e
		c.order = append(c.order, key)
		for len(c.order) > c.cap {
			delete(c.m, c.order[0])
			c.order = c.order[1:]
		}
	}
	c.mu.Unlock()
	e.once.Do(func() {
		tu, perr := parser.Parse(filename, source)
		if perr != nil {
			e.err = perr
			return
		}
		e.prog, e.err = simplify.Simplify(tu)
	})
	return e.prog, e.err, ok
}
