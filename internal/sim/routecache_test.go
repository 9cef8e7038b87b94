package sim

import (
	"reflect"
	"testing"

	"nocsim/internal/routing"
	"nocsim/internal/traffic"
)

// countingAlg counts live Route calls. Embedding the interface exposes
// only the Algorithm methods, so a countingAlg never opts into the memo.
type countingAlg struct {
	routing.Algorithm
	calls *int64
}

func (a countingAlg) Route(ctx *routing.Context, reqs []routing.Request) []routing.Request {
	*a.calls++
	return a.Algorithm.Route(ctx, reqs)
}

// countingFingerprinter is a countingAlg that forwards its algorithm's
// memo opt-in.
type countingFingerprinter struct {
	countingAlg
	f routing.Fingerprinter
}

func (a countingFingerprinter) CacheSpec() (routing.CacheSpec, bool) { return a.f.CacheSpec() }

// TestRouteCacheCountsEveryRouteCall runs every registered algorithm with
// the route memo on and checks its account against the live Route calls
// a wrapping AlgFactory counts: Result.RouteCache is always present,
// Misses equals the calls exactly, and only DOR is ever served from the
// memo. The same run with the memo off must produce the same Result.
func TestRouteCacheCountsEveryRouteCall(t *testing.T) {
	for _, name := range routing.Names() {
		t.Run(name, func(t *testing.T) {
			var calls int64
			cfg := testConfig()
			cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 100, 300, 1000
			cfg.AlgFactory = func() routing.Algorithm {
				c := countingAlg{Algorithm: routing.MustNew(name), calls: &calls}
				if f, ok := c.Algorithm.(routing.Fingerprinter); ok {
					return countingFingerprinter{countingAlg: c, f: f}
				}
				return c
			}
			res, err := runLoad(cfg, "uniform", traffic.FixedSize(1), 0.3)
			if err != nil {
				t.Fatal(err)
			}
			rc := res.RouteCache
			if rc == nil {
				t.Fatal("Result.RouteCache is nil with the memo on")
			}
			if calls == 0 || rc.Misses != calls {
				t.Errorf("misses = %d, live Route calls = %d (want equal and nonzero)", rc.Misses, calls)
			}
			if name == "dor" {
				if rc.Hits == 0 {
					t.Error("dor: the memo served no decision")
				}
			} else if rc.Hits != 0 {
				t.Errorf("%d hits, want 0: only dor is memoized", rc.Hits)
			}
			if rc.MemoHits != 0 || rc.Evictions != 0 || rc.DrawReplays != 0 {
				t.Errorf("always-zero counters moved: %+v", *rc)
			}

			cfg.NoRouteCache = true
			off, err := runLoad(cfg, "uniform", traffic.FixedSize(1), 0.3)
			if err != nil {
				t.Fatal(err)
			}
			if off.RouteCache != nil {
				t.Errorf("memo off but RouteCache = %+v", *off.RouteCache)
			}
			on := scrubPoints([]SweepPoint{{Result: res}})[0].Result
			on.RouteCache = nil
			if got := scrubPoints([]SweepPoint{{Result: off}})[0].Result; !reflect.DeepEqual(on, got) {
				t.Errorf("memo on and off differ:\non:  %+v\noff: %+v", *on, *got)
			}
		})
	}
}
