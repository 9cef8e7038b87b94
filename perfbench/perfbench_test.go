package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the benchmark must honour.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// short returns w measuring a single input set, so each mode runs one
// round of one operation.
func short(w workload) workload {
	w.inputs = 1
	return w
}

func TestWorkloadsMatchSpec(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestMetricsEmitted runs every workload in both modes and checks the
// report carries exactly the metrics BENCHMARK.json names, with their
// units.
func TestMetricsEmitted(t *testing.T) {
	s := loadSpec(t)
	for _, w := range workloads {
		w := short(w)
		t.Run(w.name, func(t *testing.T) {
			for _, mode := range []struct {
				name string
				rep  report
				want []struct{ Name, Unit string }
			}{
				{"end-to-end", measureEndToEnd(w, 1, time.Nanosecond), s.EndToEnd},
				{"traced", measureLayers(w, 1, time.Nanosecond), s.PerLayer},
			} {
				if mode.rep.Attempted < 1 {
					t.Errorf("%s: attempted %d runs", mode.name, mode.rep.Attempted)
				}
				if len(mode.rep.Metrics) != len(mode.want) {
					t.Errorf("%s: %d metrics, BENCHMARK.json names %d", mode.name, len(mode.rep.Metrics), len(mode.want))
				}
				for _, m := range mode.want {
					got, ok := mode.rep.Metrics[m.Name]
					if !ok {
						t.Errorf("%s: metric %s missing", mode.name, m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("%s: metric %s in %q, BENCHMARK.json says %q", mode.name, m.Name, got.Unit, m.Unit)
					}
				}
			}
		})
	}
}

// TestTracedMatchesUntraced checks the instrumentation changes nothing
// the simulation computes: an instrumented operation reproduces the
// untraced result digest on every workload.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			seed := inputSeeds(w, 7)[0]
			plain, traced := w.op(seed, nil), w.op(seed, &tracer{})
			if plain.digest == "" || plain.digest != traced.digest {
				t.Errorf("untraced digest %q, traced %q", plain.digest, traced.digest)
			}
			if len(traced.layers) == 0 {
				t.Error("instrumented operation reported no per-layer metrics")
			}
		})
	}
}

// TestWrappersForwardRouteCache checks the routing wrapper forwards the
// cache opt-in: the instrumented run hits the route cache exactly as
// often as the plain one, and on uniform-stable-dor that is most of the
// time.
func TestWrappersForwardRouteCache(t *testing.T) {
	seed := int64(11)
	b, err := buildUniform(seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := b.sim.Run()
	if res.RouteCache == nil {
		t.Fatal("untraced run has no route cache")
	}
	want := res.RouteCache.HitRate()
	w, _ := workloadByName("uniform-stable-dor")
	got := w.op(seed, &tracer{}).layers["routing.cache_hit_rate"]
	if got != want || want < 0.9 {
		t.Errorf("cache hit rate traced %v, untraced %v (want equal and above 0.9)", got, want)
	}
}

// TestWrappersForwardArena checks the injector wrapper forwards the arena:
// otherwise packets come from the heap and the arena's live count no
// longer matches the packets in flight, which the operation's invariant
// checks report.
func TestWrappersForwardArena(t *testing.T) {
	for _, name := range []string{"uniform-stable-dor", "hotspot-saturated-footprint"} {
		w, _ := workloadByName(name)
		o := w.op(inputSeeds(w, 3)[0], &tracer{})
		if o.failed != 0 {
			t.Errorf("%s: instrumented operation failed: %v", name, o.failures)
		}
		if o.layers["flit.peak_live_packets"] == 0 {
			t.Errorf("%s: no packet was allocated from the arena", name)
		}
	}
}

// TestTraceReplayAccounts checks a traced replay delivers the same
// records as the untraced one, with the injector wrapper forwarding the
// player's ejection notifications, and that both keep checkSim's record
// accounting.
func TestTraceReplayAccounts(t *testing.T) {
	seed := int64(5)
	plain, err := buildPair(seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	plainRes := plain.sim.Run()
	tr := &tracer{}
	traced, err := buildPair(seed, tr)
	if err != nil {
		t.Fatal(err)
	}
	tr.begin(time.Now())
	tracedRes := traced.sim.Run()
	tr.end(time.Now())
	if traced.player.Done != plain.player.Done {
		t.Errorf("traced player delivered %d records, untraced %d", traced.player.Done, plain.player.Done)
	}
	if digestResults(plainRes) != digestResults(tracedRes) {
		t.Error("traced replay differs from the untraced one")
	}
	if bad := checkSim(plainRes, plain); len(bad) != 0 {
		t.Errorf("untraced replay: %v", bad)
	}
	if bad := checkSim(tracedRes, traced); len(bad) != 0 {
		t.Errorf("traced replay: %v", bad)
	}
	if plainRes.MeasuredEjected == 0 {
		t.Error("no measured packet ejected, so the accounting checks nothing")
	}
}
