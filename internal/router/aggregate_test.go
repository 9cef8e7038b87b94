package router_test

import (
	"testing"

	"nocsim/internal/router"
	"nocsim/internal/sim"
	"nocsim/internal/topo"
)

// Figure 9's saturated point: Table 3's hotspot flows at 0.45 over
// uniform background traffic at 0.30.
const (
	hotspotBgRate = 0.30
	hotspotRate   = 0.45
)

// saturatedHotspot returns the Table 2 fabric under Figure 9's saturated
// hotspot load, stepped for the given number of cycles.
func saturatedHotspot(tb testing.TB, cycles int) *sim.Simulation {
	tb.Helper()
	s, err := sim.NewHotspot(sim.DefaultConfig(), hotspotBgRate, hotspotRate)
	if err != nil {
		tb.Fatal(err)
	}
	for c := 0; c < cycles; c++ {
		s.Step()
	}
	return s
}

// routingVCs counts r's input VCs whose head packet awaits an output VC.
func routingVCs(r *router.Router, vcs int) int {
	n := 0
	for d := topo.East; d <= topo.Local; d++ {
		for v := 0; v < vcs; v++ {
			if r.InputVCSnapshot(d, v).State == router.VCStateRouting {
				n++
			}
		}
	}
	return n
}

// checkAggregatesEveryCycle steps s for cycles cycles and, after each,
// checks every router's maintained aggregates against a from-scratch
// rebuild. It returns the most routing VCs left at any router at the
// end, so the caller can assert that the run reached the blocked states
// it means to cover.
func checkAggregatesEveryCycle(t *testing.T, s *sim.Simulation, vcs, cycles int) (maxRouting int) {
	t.Helper()
	net := s.Network()
	for c := 0; c < cycles; c++ {
		s.Step()
		for id := 0; id < net.Nodes(); id++ {
			if err := net.Router(id).CheckAggregates(); err != nil {
				t.Fatalf("cycle %d node %d: %v", net.Now(), id, err)
			}
		}
	}
	for id := 0; id < net.Nodes(); id++ {
		maxRouting = max(maxRouting, routingVCs(net.Router(id), vcs))
	}
	return maxRouting
}

// TestAggregatesMatchRebuildWedge checks the router's incremental
// aggregates (idle, allocatable, owner and register masks, and the
// head-packet arrays) after every cycle of the 2×2 wedge, through the
// fill, the wedge and the frozen tail.
func TestAggregatesMatchRebuildWedge(t *testing.T) {
	cfg, gen := wedgeFixture()
	s := sim.MustNew(cfg, gen)
	cycles := int(cfg.WarmupCycles + cfg.MeasureCycles + cfg.DrainCycles)
	if peak := checkAggregatesEveryCycle(t, s, cfg.VCs, cycles); peak == 0 {
		t.Fatal("no head packet is left waiting for an output VC; the fixture lost its coverage")
	}
}

// TestAggregatesMatchRebuildSaturatedHotspot runs the same per-cycle
// check on the Table 2 fabric driven into saturation by Figure 9's
// hotspot load, where every blocked head is re-routed every cycle and
// the owner and register masks churn.
func TestAggregatesMatchRebuildSaturatedHotspot(t *testing.T) {
	cycles := 1500
	if testing.Short() {
		cycles = 300
	}
	s := saturatedHotspot(t, 0)
	if peak := checkAggregatesEveryCycle(t, s, sim.DefaultConfig().VCs, cycles); peak < 5 {
		t.Fatalf("at most %d routing VCs at one router; the fabric did not saturate", peak)
	}
}

// blockedRouter steps the saturated hotspot fabric and returns its router
// with the most head packets awaiting an output VC, after one
// AllocateVCs call has granted what it can. Further AllocateVCs calls
// are then the saturated steady state: every head is re-routed, bids
// and fails, and the router's output state does not change.
func blockedRouter(tb testing.TB) (*router.Router, int) {
	tb.Helper()
	s := saturatedHotspot(tb, 2000)
	net := s.Network()
	vcs := sim.DefaultConfig().VCs
	var best *router.Router
	bestN := -1
	for id := 0; id < net.Nodes(); id++ {
		if n := routingVCs(net.Router(id), vcs); n > bestN {
			best, bestN = net.Router(id), n
		}
	}
	best.AllocateVCs()
	heads := routingVCs(best, vcs)
	if heads == 0 {
		tb.Fatal("no blocked head packets left after allocation; the fabric did not saturate")
	}
	return best, heads
}

// TestAllocateVCsSteadyStateAllocatesNothing pins the saturated cycle's
// allocation budget: once the request lists have grown to their working
// size, re-routing and re-bidding every blocked head allocates nothing.
func TestAllocateVCsSteadyStateAllocatesNothing(t *testing.T) {
	r, _ := blockedRouter(t)
	before := r.VCAllocFailures()
	if allocs := testing.AllocsPerRun(100, r.AllocateVCs); allocs != 0 {
		t.Errorf("AllocateVCs allocates %.1f times per call in steady state, want 0", allocs)
	}
	if r.VCAllocFailures() == before {
		t.Error("no allocation failures were counted; the calls did not exercise the blocked path")
	}
}

// BenchmarkRouterAllocateVCs prices one saturated router cycle of route
// computation and VC allocation: the router of the saturated hotspot
// fabric with the most blocked heads, each re-routed and re-bid per call.
func BenchmarkRouterAllocateVCs(b *testing.B) {
	r, heads := blockedRouter(b)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		r.AllocateVCs()
	}
	b.ReportMetric(float64(heads), "heads")
}
