package routing

import (
	"fmt"

	"nocsim/internal/topo"
)

// This file implements the route memo: an algorithm whose decision is a
// pure function of the destination offset and the arrival port reuses
// one computed request list for every (offset, InDir) it meets, across
// routers, packets and blocked cycles. DOR is the one such algorithm.
// The adaptive algorithms read per-cycle VC idle and ownership state,
// which almost never repeats, so they always route live; the memo only
// counts their calls.
//
// The memo cannot change simulated results. A memoized Route reads
// nothing but the offset and InDir and never draws from ctx.Rand, so a
// stored list is exactly what a live call would append, and skipping
// the call skips no draw. FuzzRouteCacheDifferential checks both halves
// against live routing.
type (
	// CacheSpec is the memo key an algorithm declares. It has no fields:
	// the only key the memo supports is (destination offset, InDir).
	CacheSpec struct{}

	// Fingerprinter is the opt-in interface for memoizable algorithms.
	// Returning ok=true asserts that Route is a pure function of the
	// destination offset (Dest−Cur), InDir and configuration fixed at
	// construction, and never draws from ctx.Rand. Returning ok=false
	// opts out dynamically.
	Fingerprinter interface {
		CacheSpec() (CacheSpec, bool)
	}
)

// CacheStats counts the memo's traffic. All counters are deterministic:
// they are a pure function of the simulated schedule.
type CacheStats struct {
	// Hits counts decisions served from the memo.
	Hits int64 `json:"hits"`
	// MemoHits, Evictions and DrawReplays are always zero: the memo has
	// no second-level memo, never evicts and never replays a draw. They
	// stay so the struct keeps its shape for code that reads it.
	MemoHits int64 `json:"memo_hits,omitempty"`
	// Misses counts live Route calls: every decision of an algorithm
	// that does not opt in, and the first decision at each (offset,
	// InDir) of one that does.
	Misses      int64 `json:"misses"`
	Evictions   int64 `json:"evictions,omitempty"`
	DrawReplays int64 `json:"draw_replays,omitempty"`
}

// HitRate returns the fraction of decisions served from the memo.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// String formats the stats for status lines and the phase table.
func (s CacheStats) String() string {
	return fmt.Sprintf("%.1f%% hit (%d hits, %d misses)", 100*s.HitRate(), s.Hits, s.Misses)
}

// Cache is one fabric's shared route memo. Routers of one network step
// sequentially within a cycle, so no locking is needed; each parallel
// run owns its own Cache.
type Cache struct {
	// key[n] is x + y·(2W−1) for node n at (x, y), so key[dest] −
	// key[cur] + center is the row-major index of their offset in a
	// (2W−1)×(2H−1) grid.
	key    []int32
	center int32
	// lists[offset*NumPorts+InDir] is the stored decision, nil until
	// first computed. lists is nil when the algorithm did not opt in.
	lists [][]Request
	stats CacheStats
}

// NewCache builds the memo for alg on mesh m. When alg does not opt in
// through Fingerprinter, the cache routes every decision live and only
// counts it.
func NewCache(alg Algorithm, m topo.Mesh) *Cache {
	c := &Cache{}
	f, ok := alg.(Fingerprinter)
	if !ok {
		return c
	}
	if _, ok := f.CacheSpec(); !ok {
		return c
	}
	span := 2*m.Width - 1
	c.key = make([]int32, m.Nodes())
	for n := range c.key {
		cd := m.Coord(n)
		c.key[n] = int32(cd.X + cd.Y*span)
	}
	c.center = int32(m.Width - 1 + (m.Height-1)*span)
	c.lists = make([][]Request, span*(2*m.Height-1)*topo.NumPorts)
	return c
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// Requests returns alg's VC requests for ctx, appending to reqs exactly
// as Route does; a memoized list is copied, never aliased. ctx.Mesh must
// be the mesh the cache was built for.
func (c *Cache) Requests(alg Algorithm, ctx *Context, reqs []Request) []Request {
	if c.lists == nil {
		c.stats.Misses++
		return alg.Route(ctx, reqs)
	}
	i := c.index(ctx)
	if l := c.lists[i]; l != nil {
		c.stats.Hits++
		return append(reqs, l...)
	}
	c.stats.Misses++
	base := len(reqs)
	reqs = alg.Route(ctx, reqs)
	// make never returns nil, so an empty decision is memoized too.
	c.lists[i] = append(make([]Request, 0, len(reqs)-base), reqs[base:]...)
	return reqs
}

// index returns ctx's memo slot: its (offset, InDir) in row-major order.
func (c *Cache) index(ctx *Context) int {
	return int(c.key[ctx.Dest]-c.key[ctx.Cur]+c.center)*topo.NumPorts + int(ctx.InDir)
}
