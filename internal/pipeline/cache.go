package pipeline

import (
	"crypto/sha256"
	"encoding/json"
	"sync"

	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/diagram"
	"repro/internal/microcode"
)

// Cache memoizes whole compilations by content address: the key hashes
// the machine configuration together with the compilation's semantic
// input (source statements plus grid and plane mapping, an editor
// script's text, or a diagram document's JSON form). Content addressing makes the cache
// self-invalidating — any change to the inputs is a different key —
// exactly like the simulator's decoded-instruction plan cache, and the
// hit/miss counters surface the same way (core.Environment,
// nscasm/nscsim -stats).
//
// A Cache is safe for concurrent use. Hits return defensive copies of
// the program (instruction words are cloned, as Result.Instrs clones
// the standalone ones) so callers may mutate their result freely;
// reports and documents are shared and treated as immutable by
// convention, as they are between any two callers of the generator.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*Result
	hits    int64
	misses  int64
}

// CacheStats reports a compile cache's behaviour.
type CacheStats struct {
	Hits    int64
	Misses  int64
	Entries int
}

// NewCache returns an empty compile cache.
func NewCache() *Cache {
	return &Cache{entries: map[string]*Result{}}
}

// Stats returns the hit/miss counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: len(c.entries)}
}

// Reset drops every entry and zeroes the counters.
func (c *Cache) Reset() {
	c.mu.Lock()
	c.entries = map[string]*Result{}
	c.hits, c.misses = 0, 0
	c.mu.Unlock()
}

// lookup returns a copy-on-hit view of the cached result.
func (c *Cache) lookup(key string) (*Result, bool) {
	c.mu.Lock()
	res, ok := c.entries[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	out := *res
	out.Prog = cloneProgram(res.Prog)
	out.CacheHit = true
	return &out, true
}

// store records a successful compilation.
func (c *Cache) store(key string, res *Result) {
	c.mu.Lock()
	c.entries[key] = res
	c.mu.Unlock()
}

// cloneProgram deep-copies the instruction words so a cached program
// cannot be corrupted by a caller mutating its result.
func cloneProgram(p *microcode.Program) *microcode.Program {
	if p == nil {
		return nil
	}
	out := microcode.NewProgram(p.F)
	for _, in := range p.Instrs {
		out.Append(in.Clone())
	}
	return out
}

// sourceCacheKey content-addresses a source compilation.
func sourceCacheKey(cfg arch.Config, stmts []string, opt compiler.Options) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	key := struct {
		Cfg    arch.Config
		Stmts  []string
		N, Nz  int
		Planes map[string]int
	}{cfg, stmts, opt.N, opt.Nz, opt.Planes}
	if err := enc.Encode(key); err != nil {
		panic("pipeline: hashing source key: " + err.Error())
	}
	return "src:" + string(h.Sum(nil))
}

// scriptCacheKey content-addresses an editor-script compilation.
func scriptCacheKey(cfg arch.Config, script string) string {
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(cfg); err != nil {
		panic("pipeline: hashing script key: " + err.Error())
	}
	h.Write([]byte(script))
	return "script:" + string(h.Sum(nil))
}

// documentCacheKey content-addresses a document compilation via the
// document's canonical JSON form (the same bytes Save writes).
func documentCacheKey(cfg arch.Config, doc *diagram.Document) (string, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	if err := enc.Encode(cfg); err != nil {
		return "", err
	}
	if err := enc.Encode(doc); err != nil {
		return "", err
	}
	return "doc:" + string(h.Sum(nil)), nil
}
