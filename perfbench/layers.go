package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"nocsim/internal/exp"
	"nocsim/internal/flit"
	"nocsim/internal/network"
	"nocsim/internal/routing"
	"nocsim/internal/sim"
	"nocsim/internal/stats"
	"nocsim/internal/topo"
	"nocsim/internal/trace"
)

// layerMetrics are the per-layer metrics of an instrumented run, with
// their units, in report order. A layer a workload bypasses reports 0.
var layerMetrics = []struct{ name, unit string }{
	{"sim.new_s", "s"},
	{"sim.warmup_s", "s"},
	{"sim.measure_s", "s"},
	{"sim.drain_s", "s"},
	{"sim.drain_share", "ratio"},
	{"sim.drain_cycles", "cycles"},
	{"network.step_us_p50", "us"},
	{"network.step_us_p99", "us"},
	{"network.step_samples", "count"},
	{"network.link_s", "s"},
	{"network.inject_eject_s", "s"},
	{"network.active_node_share", "ratio"},
	{"router.receive_s", "s"},
	{"router.vc_alloc_s", "s"},
	{"router.vc_alloc_self_s", "s"},
	{"router.switch_s", "s"},
	{"router.va_failures", "count"},
	{"router.va_failures_per_flit_hop", "ratio"},
	{"router.credit_stalls", "count"},
	{"router.crossbar_grants", "count"},
	{"router.peak_source_queue", "packets"},
	{"routing.route_calls", "count"},
	{"routing.route_s", "s"},
	{"routing.route_calls_per_flit_hop", "ratio"},
	{"routing.cache_hits", "count"},
	{"routing.cache_misses", "count"},
	{"routing.cache_hit_rate", "ratio"},
	{"traffic.tick_s", "s"},
	{"traffic.packets_offered", "count"},
	{"trace.generate_s", "s"},
	{"trace.merge_s", "s"},
	{"trace.player_tick_s", "s"},
	{"trace.on_eject_s", "s"},
	{"trace.unreplayed_records", "count"},
	{"flit.peak_live_packets", "count"},
	{"flit.peak_live_flits", "count"},
	{"exp.runs", "count"},
	{"exp.run_s_sum", "s"},
	{"exp.saturated_run_share", "ratio"},
	{"exp.parallel_efficiency", "ratio"},
	{"sim_latency_cycles", "cycles"},
	{"sim_p99_latency_cycles", "cycles"},
	{"sim_accepted_flits", "flits/node/cycle"},
	{"sim_sat_throughput", "flits/node/cycle"},
	{"bench.traced_wall_s", "s"},
}

// tracer instruments one simulation from outside, at three public seams:
// a phase probe on the network, a wrapper around every routing
// algorithm instance, and a wrapper around every injector. It also
// accumulates the set-up spans the workload builders time.
type tracer struct {
	newTime, generateTime, mergeTime time.Duration

	routeCalls int64
	routeTime  time.Duration

	tickTime, playerTickTime, onEjectTime time.Duration
	offered                               int64

	probe *cycleProbe
}

// algFactory returns a sim.Config.AlgFactory building timed instances of
// the named algorithm.
func (t *tracer) algFactory(name string) (func() routing.Algorithm, error) {
	if _, err := routing.New(name); err != nil {
		return nil, err
	}
	return func() routing.Algorithm {
		alg := timedAlg{inner: routing.MustNew(name), t: t}
		// Forward the cache opt-in, or the instrumented run would route
		// without the route-decision cache.
		if f, ok := alg.inner.(routing.Fingerprinter); ok {
			return fingerprintedAlg{timedAlg: alg, spec: f}
		}
		return alg
	}, nil
}

// timedAlg times every live Route call; decisions the route cache
// replays never reach it.
type timedAlg struct {
	inner routing.Algorithm
	t     *tracer
}

func (a timedAlg) Name() string              { return a.inner.Name() }
func (a timedAlg) UsesEscape() bool          { return a.inner.UsesEscape() }
func (a timedAlg) ConservativeRealloc() bool { return a.inner.ConservativeRealloc() }

func (a timedAlg) Route(ctx *routing.Context, reqs []routing.Request) []routing.Request {
	t0 := time.Now()
	reqs = a.inner.Route(ctx, reqs)
	a.t.routeTime += time.Since(t0)
	a.t.routeCalls++
	return reqs
}

// fingerprintedAlg is a timedAlg whose algorithm opted into caching.
type fingerprintedAlg struct {
	timedAlg
	spec routing.Fingerprinter
}

func (a fingerprintedAlg) CacheSpec() (routing.CacheSpec, bool) { return a.spec.CacheSpec() }

// wrapInjector times an injector's Tick and counts the packets it offers.
// The wrapper forwards the optional interfaces the simulation looks for:
// without sim.ArenaUser packets would come from the heap, and without
// sim.EjectObserver a trace player would never release its dependent
// records.
func (t *tracer) wrapInjector(g sim.Injector) (sim.Injector, error) {
	arena, ok := g.(sim.ArenaUser)
	if !ok {
		return nil, fmt.Errorf("perfbench: injector %T does not allocate from the arena", g)
	}
	w := &timedInjector{inner: g, arena: arena, t: t, tickTime: &t.tickTime}
	if _, ok := g.(*trace.Player); ok {
		w.tickTime = &t.playerTickTime
	}
	w.count = w.countOffer
	if obs, ok := g.(sim.EjectObserver); ok {
		return &observedInjector{timedInjector: w, obs: obs}, nil
	}
	return w, nil
}

type timedInjector struct {
	inner    sim.Injector
	arena    sim.ArenaUser
	t        *tracer
	tickTime *time.Duration
	// offer is the simulation's callback for the current Tick; count
	// is the bound countOffer, made once so a Tick allocates nothing.
	offer func(*flit.Packet)
	count func(*flit.Packet)
}

func (w *timedInjector) Init(m topo.Mesh, rng *rand.Rand) { w.inner.Init(m, rng) }
func (w *timedInjector) UseArena(a *flit.Arena)           { w.arena.UseArena(a) }

func (w *timedInjector) Tick(now int64, offer func(*flit.Packet)) {
	w.offer = offer
	t0 := time.Now()
	w.inner.Tick(now, w.count)
	*w.tickTime += time.Since(t0)
}

func (w *timedInjector) countOffer(p *flit.Packet) {
	w.t.offered++
	w.offer(p)
}

type observedInjector struct {
	*timedInjector
	obs sim.EjectObserver
}

func (w *observedInjector) OnEject(p *flit.Packet) {
	t0 := time.Now()
	w.obs.OnEject(p)
	w.t.onEjectTime += time.Since(t0)
}

// attach hangs a cycle probe on the network.
func (t *tracer) attach(net *network.Network, cfg sim.Config) {
	t.probe = &cycleProbe{
		net:     net,
		warmEnd: net.Now() + cfg.WarmupCycles,
		measEnd: net.Now() + cfg.WarmupCycles + cfg.MeasureCycles,
	}
	net.Probe = t.probe
}

// begin and end bracket Simulation.Run.
func (t *tracer) begin(at time.Time) {
	t.probe.last, t.probe.lastCycle = at, t.probe.net.Now()
}

func (t *tracer) end(at time.Time) {
	p := t.probe
	p.simTime[p.stage(p.lastCycle)] += at.Sub(p.last)
}

// cycleProbe is a network.PhaseProbe that instruments every cycle. It
// attributes host time to the simulation phase (warmup, measure, drain)
// by cycle number, and within Network.Step to the pipeline phases, and
// samples how many nodes hold work and the deepest source queue.
type cycleProbe struct {
	net              *network.Network
	warmEnd, measEnd int64

	last      time.Time
	lastCycle int64
	simTime   [3]time.Duration // warmup, measure, drain

	stepStart  time.Time
	steps      []time.Duration
	phase      network.Phase
	phaseStart time.Time
	inPhase    bool
	phaseTime  [network.NumPhases]time.Duration

	activeNodes int64 // node-cycles with a non-quiescent router or endpoint
	nodeCycles  int64
	peakQueue   int
}

// stage maps a cycle to 0 warmup, 1 measure or 2 drain.
func (p *cycleProbe) stage(cycle int64) int {
	switch {
	case cycle < p.warmEnd:
		return 0
	case cycle < p.measEnd:
		return 1
	default:
		return 2
	}
}

func (p *cycleProbe) BeginCycle(now int64) bool {
	t := time.Now()
	p.simTime[p.stage(p.lastCycle)] += t.Sub(p.last)
	p.last, p.lastCycle = t, now
	for id := 0; id < p.net.Nodes(); id++ {
		ep := p.net.Endpoint(id)
		if !p.net.Router(id).Quiescent() || !ep.Quiescent() {
			p.activeNodes++
		}
		p.peakQueue = max(p.peakQueue, ep.QueueLen())
	}
	p.nodeCycles += int64(p.net.Nodes())
	p.stepStart = time.Now()
	return true
}

func (p *cycleProbe) BeginPhase(ph network.Phase) {
	t := time.Now()
	if p.inPhase {
		p.phaseTime[p.phase] += t.Sub(p.phaseStart)
	}
	p.phase, p.phaseStart, p.inPhase = ph, t, true
}

func (p *cycleProbe) EndCycle() {
	t := time.Now()
	p.phaseTime[p.phase] += t.Sub(p.phaseStart)
	p.inPhase = false
	p.steps = append(p.steps, t.Sub(p.stepStart))
}

// simLayers assembles the per-layer metrics of one instrumented run.
func (t *tracer) simLayers(res *sim.Result, b *built) map[string]float64 {
	p := t.probe
	net := b.sim.Network()
	m := map[string]float64{}

	m["sim.new_s"] = t.newTime.Seconds()
	m["sim.warmup_s"] = p.simTime[0].Seconds()
	m["sim.measure_s"] = p.simTime[1].Seconds()
	m["sim.drain_s"] = p.simTime[2].Seconds()
	m["sim.drain_share"] = stats.Ratio(p.simTime[2].Seconds(), (p.simTime[0] + p.simTime[1] + p.simTime[2]).Seconds())
	m["sim.drain_cycles"] = float64(max(0, res.Runtime.Cycles-b.cfg.WarmupCycles-b.cfg.MeasureCycles))

	sort.Slice(p.steps, func(i, j int) bool { return p.steps[i] < p.steps[j] })
	m["network.step_us_p50"] = quantile(p.steps, 0.50)
	m["network.step_us_p99"] = quantile(p.steps, 0.99)
	m["network.step_samples"] = float64(len(p.steps))
	m["network.link_s"] = p.phaseTime[network.PhaseLinkTraversal].Seconds()
	m["network.inject_eject_s"] = p.phaseTime[network.PhaseInjectEject].Seconds()
	m["network.active_node_share"] = stats.Ratio(float64(p.activeNodes), float64(p.nodeCycles))

	hops := float64(res.Runtime.FlitHops)
	var vaFail, stalls, grants int64
	for id := 0; id < net.Nodes(); id++ {
		r := net.Router(id)
		vaFail += r.VCAllocFailures()
		for d := topo.East; d <= topo.Local; d++ {
			stalls += r.CreditStalls(d)
			grants += r.CrossbarGrants(d)
		}
	}
	m["router.receive_s"] = p.phaseTime[network.PhaseRouteCompute].Seconds()
	m["router.vc_alloc_s"] = p.phaseTime[network.PhaseVCAlloc].Seconds()
	m["router.vc_alloc_self_s"] = (p.phaseTime[network.PhaseVCAlloc] - t.routeTime).Seconds()
	m["router.switch_s"] = p.phaseTime[network.PhaseSwitchAlloc].Seconds()
	m["router.va_failures"] = float64(vaFail)
	m["router.va_failures_per_flit_hop"] = stats.Ratio(float64(vaFail), hops)
	m["router.credit_stalls"] = float64(stalls)
	m["router.crossbar_grants"] = float64(grants)
	m["router.peak_source_queue"] = float64(p.peakQueue)

	m["routing.route_calls"] = float64(t.routeCalls)
	m["routing.route_s"] = t.routeTime.Seconds()
	m["routing.route_calls_per_flit_hop"] = stats.Ratio(float64(t.routeCalls), hops)
	addCache(m, res.RouteCache)

	m["traffic.tick_s"] = t.tickTime.Seconds()
	m["traffic.packets_offered"] = float64(t.offered)
	m["trace.generate_s"] = t.generateTime.Seconds()
	m["trace.merge_s"] = t.mergeTime.Seconds()
	m["trace.player_tick_s"] = t.playerTickTime.Seconds()
	m["trace.on_eject_s"] = t.onEjectTime.Seconds()
	if b.player != nil {
		m["trace.unreplayed_records"] = float64(b.player.Total - b.player.Done)
	}

	arena := net.Arena().Stats()
	m["flit.peak_live_packets"] = float64(arena.Packets.HighWater)
	m["flit.peak_live_flits"] = float64(arena.Flits.HighWater)
	return m
}

func addCache(m map[string]float64, cs ...*routing.CacheStats) {
	var hits, misses int64
	for _, c := range cs {
		if c != nil {
			hits += c.Hits
			misses += c.Misses
		}
	}
	m["routing.cache_hits"] = float64(hits)
	m["routing.cache_misses"] = float64(misses)
	m["routing.cache_hit_rate"] = stats.Ratio(float64(hits), float64(hits+misses))
}

// figure5Layers derives the per-layer metrics of a Figure 5 call from the
// Results exp returns, since exp assembles its simulations itself. Phase
// times are the sampled phase profile scaled from sampled to all cycles;
// with the cache on for every algorithm, each cache miss is one live
// Route call.
func figure5Layers(cs exp.CurveSet, wall time.Duration) map[string]float64 {
	m := map[string]float64{}
	var phase [network.NumPhases]float64
	var runs, hops, peakPackets, peakFlits int64
	var runSum, saturatedSum float64
	var caches []*routing.CacheStats
	for _, c := range cs.Curves {
		for _, pt := range c.Points {
			r := pt.Result
			runs++
			hops += r.Runtime.FlitHops
			runSum += r.Runtime.WallSeconds
			if !r.Stable {
				saturatedSum += r.Runtime.WallSeconds
			}
			caches = append(caches, r.RouteCache)
			pp := r.PerfProfile
			if pp == nil || pp.SampledCycles == 0 {
				continue
			}
			scale := float64(r.Runtime.Cycles) / float64(pp.SampledCycles)
			for _, ps := range pp.Phases {
				for ph := network.Phase(0); int(ph) < network.NumPhases; ph++ {
					if ps.Phase == ph.String() {
						phase[ph] += float64(ps.Nanos) * scale / 1e9
					}
				}
			}
			if pp.Arena != nil {
				peakPackets = max(peakPackets, int64(pp.Arena.Packets.HighWater))
				peakFlits = max(peakFlits, int64(pp.Arena.Flits.HighWater))
			}
		}
	}
	addCache(m, caches...)
	misses := m["routing.cache_misses"]
	m["routing.route_calls"] = misses
	m["routing.route_calls_per_flit_hop"] = stats.Ratio(misses, float64(hops))
	m["router.receive_s"] = phase[network.PhaseRouteCompute]
	m["router.vc_alloc_s"] = phase[network.PhaseVCAlloc]
	m["router.switch_s"] = phase[network.PhaseSwitchAlloc]
	m["network.link_s"] = phase[network.PhaseLinkTraversal]
	m["network.inject_eject_s"] = phase[network.PhaseInjectEject]
	m["flit.peak_live_packets"] = float64(peakPackets)
	m["flit.peak_live_flits"] = float64(peakFlits)
	m["exp.runs"] = float64(runs)
	m["exp.run_s_sum"] = runSum
	m["exp.saturated_run_share"] = stats.Ratio(saturatedSum, runSum)
	m["exp.parallel_efficiency"] = stats.Ratio(runSum, figureJobs*wall.Seconds())
	return m
}

// quantile returns the q-quantile of sorted durations in microseconds.
func quantile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return float64(sorted[i].Nanoseconds()) / 1e3
}
