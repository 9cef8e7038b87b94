package routing

import (
	"math/rand"
	"testing"

	"nocsim/internal/topo"
)

// BenchmarkCachePathsDOR prices the route memo's hit path against the
// live DOR Route it replaces. The root package's
// BenchmarkRouteCacheHitPath measures the same trade end to end inside
// a full simulation; this isolates the per-decision cost.
func BenchmarkCachePathsDOR(b *testing.B) {
	m := topo.MustNew(8, 8)
	alg := MustNew("dor")
	ctx := &Context{
		Mesh: m, Cur: 9, Dest: 27, InDir: topo.West,
		View: bitsFakeView{newFakeView(8)}, Rand: rand.New(rand.NewSource(1)),
	}

	b.Run("route-uncached", func(b *testing.B) {
		b.ReportAllocs()
		var reqs []Request
		for i := 0; i < b.N; i++ {
			reqs = alg.Route(ctx, reqs[:0])
		}
	})

	b.Run("memo-hit", func(b *testing.B) {
		c := NewCache(alg, m)
		var reqs []Request
		reqs = c.Requests(alg, ctx, reqs[:0]) // store the entry
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reqs = c.Requests(alg, ctx, reqs[:0])
		}
		_ = reqs
	})
}
