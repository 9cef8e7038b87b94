package routing_test

import (
	"math/rand"
	"testing"

	"nocsim/internal/router"
	"nocsim/internal/routing"
	"nocsim/internal/sim"
	"nocsim/internal/topo"
)

// BenchmarkFootprintRoute replays Footprint's Route over the decisions a
// saturated fabric makes: the Table 2 mesh under Figure 9's saturated
// hotspot load (Table 3 flows at 0.45 over 0.30 uniform background) is
// stepped into saturation and frozen, and every head packet awaiting an
// output VC becomes one routing context over its live router. One op is
// one Route call; the views are the routers themselves, so the
// aggregate and bitmask paths are the production ones.
func BenchmarkFootprintRoute(b *testing.B) {
	s, err := sim.NewHotspot(sim.DefaultConfig(), 0.30, 0.45)
	if err != nil {
		b.Fatal(err)
	}
	for c := 0; c < 2000; c++ {
		s.Step()
	}
	net := s.Network()
	vcs := sim.DefaultConfig().VCs
	rng := rand.New(rand.NewSource(1))
	var ctxs []routing.Context
	for id := 0; id < net.Nodes(); id++ {
		r := net.Router(id)
		for d := topo.East; d <= topo.Local; d++ {
			for v := 0; v < vcs; v++ {
				st := r.InputVCSnapshot(d, v)
				if st.State != router.VCStateRouting || st.PacketDest == id {
					continue
				}
				ctxs = append(ctxs, routing.Context{
					Mesh: net.Mesh(), Cur: id, Dest: st.PacketDest, InDir: d,
					View: r, Rand: rng,
				})
			}
		}
	}
	if len(ctxs) == 0 {
		b.Fatal("no blocked head packets; the fabric did not saturate")
	}
	alg := routing.NewFootprint()
	reqs := make([]routing.Request, 0, 2*vcs)
	b.ReportAllocs()
	b.ResetTimer()
	i := 0
	for n := 0; n < b.N; n++ {
		reqs = alg.Route(&ctxs[i], reqs[:0])
		if i++; i == len(ctxs) {
			i = 0
		}
	}
	b.ReportMetric(float64(len(ctxs)), "contexts")
}
