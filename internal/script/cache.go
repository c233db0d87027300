package script

import (
	"strings"
	"sync"
	"sync/atomic"
)

// The interpreter never writes the AST, so one parse of a <script>
// body can serve every page load and every session in the pool. The
// package-level parse cache below is a two-generation ("hot"/"cold")
// bounded map: when the hot generation fills, it becomes the cold one
// and a fresh hot map starts. A cold hit promotes back to hot, so
// scripts that keep appearing survive rotation while one-shot bodies
// age out after two generations.

type compileCache struct {
	mu    sync.Mutex
	hot   map[string]*Program
	cold  map[string]*Program
	limit int

	hits   atomic.Uint64
	misses atomic.Uint64
}

// progCache serves CompileCached. 512 entries per generation covers
// the full benchmark corpus (figure4 + phpBB + mixed + attacks) many
// times over while bounding worst-case retention.
var progCache = &compileCache{
	hot:   make(map[string]*Program),
	cold:  make(map[string]*Program),
	limit: 512,
}

// CompileCached returns the parsed form of src, parsing at most once
// per distinct source under normal operation. Parse errors are not
// cached. The returned program is shared: callers must not modify it.
// Safe for concurrent use.
func CompileCached(src string) (*Program, error) { return progCache.get(src) }

// CompileCacheStats reports cumulative cache hits and misses.
func CompileCacheStats() (hits, misses uint64) {
	return progCache.hits.Load(), progCache.misses.Load()
}

func (c *compileCache) get(src string) (*Program, error) {
	c.mu.Lock()
	if p, ok := c.hot[src]; ok {
		c.mu.Unlock()
		c.hits.Add(1)
		return p, nil
	}
	if p, ok := c.cold[src]; ok {
		c.insertLocked(strings.Clone(src), p)
		c.mu.Unlock()
		c.hits.Add(1)
		return p, nil
	}
	c.mu.Unlock()

	// Parse outside the lock; a racing duplicate parse is harmless
	// since the programs are interchangeable.
	p, err := Parse(src)
	c.misses.Add(1)
	if err != nil {
		return nil, err
	}
	// Clone the key: src is often a substring of a whole page, and a
	// map key pinning page-sized buffers would defeat the point of
	// interning.
	key := strings.Clone(src)
	c.mu.Lock()
	c.insertLocked(key, p)
	c.mu.Unlock()
	return p, nil
}

func (c *compileCache) insertLocked(key string, p *Program) {
	if len(c.hot) >= c.limit {
		c.cold = c.hot
		c.hot = make(map[string]*Program, c.limit)
	}
	c.hot[key] = p
}
