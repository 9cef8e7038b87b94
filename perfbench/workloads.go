package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"nocsim/internal/exp"
	"nocsim/internal/flit"
	"nocsim/internal/sim"
	"nocsim/internal/trace"
	"nocsim/internal/traffic"
)

// Workload parameters. Every workload uses the paper's Table 2 fabric
// (sim.DefaultConfig: 8×8 mesh, 10 VCs, 4-flit buffers, speedup 2).
const (
	// uniform-stable-dor: open-loop Bernoulli uniform random traffic at
	// the full profile's phase lengths.
	uniformRate = 0.20

	// hotspot-saturated-footprint: Figure 9's scenario at its saturated
	// end. 1000 cycles each of warmup, measurement and drain are enough
	// to saturate the background traffic (the drain budget runs out) at
	// under two seconds a run, where the full profile takes a quarter
	// minute.
	hotspotBgRate = 0.30
	hotspotRate   = 0.45
	hotspotPhase  = 1000

	// parsec-pair-trace: Figure 10's fluidanimate+x264 pair, traced for
	// half the full profile's length.
	pairA, pairB = "fluidanimate", "x264"
	pairCycles   = 10000

	// seededInputs is how many input sets a seeded workload measures per
	// round, each generated from its own seed derived from -seed. The
	// saturated and trace workloads do input-dependent amounts of work,
	// so a round over several inputs keeps one seed's figures close to
	// another's.
	seededInputs = 4

	// figure5-quick-uniform runs on two workers.
	figureJobs = 2
)

// op is the outcome of one measured operation: one simulation run, or one
// exp.Figure5 call (a grid of runs).
type op struct {
	setup, wall time.Duration
	allocBytes  uint64
	// cycles and flitHops are the simulated work done, summed over runs.
	cycles, flitHops int64
	// runs counts the simulation runs attempted; failed the runs that
	// errored, panicked or broke an invariant (failures says how).
	runs, failed int
	failures     []string
	digest       string
	model        model
	// satThroughput is Footprint's saturation throughput (figure5 only).
	satThroughput float64
	// layers holds the per-layer metrics (instrumented runs only).
	layers map[string]float64
}

// fail records a failed run.
func (o *op) fail(msgs ...string) {
	if len(msgs) == 0 {
		return
	}
	o.failed++
	o.failures = append(o.failures, msgs...)
}

// model is the modelled design's own result, which a speed-only change
// must leave identical: background-packet latency and the accepted load
// of the run, or on figure5-quick-uniform of Footprint's lowest-rate
// point.
type model struct {
	latency, p99, accepted float64
}

// workload is one benchmark input set.
type workload struct {
	name string
	// inputs is the number of input sets per round; 1 for a workload
	// that takes no seed.
	inputs int
	// op runs one operation on inputs generated from seed; a non-nil tr
	// instruments it.
	op func(seed int64, tr *tracer) op
	// reference runs the op's inputs once through the repository's own
	// harness entry point and returns the result digest; nil when op
	// already calls that entry point.
	reference func(seed int64) (string, error)
	// setup times the construction that precedes the first simulated
	// cycle, for workloads whose op cannot time it itself (nil when op
	// reports it).
	setup func() (time.Duration, error)
}

var workloads = []workload{
	{name: "uniform-stable-dor", inputs: seededInputs, op: simOp(buildUniform)},
	{name: "hotspot-saturated-footprint", inputs: seededInputs, op: simOp(buildHotspot), reference: hotspotReference},
	{name: "parsec-pair-trace", inputs: seededInputs, op: simOp(buildPair), reference: pairReference},
	// exp.Figure5 takes no seed: its Profile carries none and
	// Profile.BaseConfig pins sim.DefaultConfig's.
	{name: "figure5-quick-uniform", inputs: 1, op: figure5Op, setup: figure5Setup},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// built is one assembled, not yet started simulation.
type built struct {
	sim    *sim.Simulation
	cfg    sim.Config
	player *trace.Player // parsec-pair-trace only
}

// assemble builds the simulation, instrumenting it when tr is non-nil.
func assemble(cfg sim.Config, tr *tracer, gens ...sim.Injector) (*built, error) {
	if tr != nil {
		f, err := tr.algFactory(cfg.Algorithm)
		if err != nil {
			return nil, err
		}
		cfg.AlgFactory = f
		for i, g := range gens {
			if gens[i], err = tr.wrapInjector(g); err != nil {
				return nil, err
			}
		}
	}
	t0 := time.Now()
	s, err := sim.New(cfg, gens...)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.newTime += time.Since(t0)
		tr.attach(s.Network(), cfg)
	}
	return &built{sim: s, cfg: cfg}, nil
}

func buildUniform(seed int64, tr *tracer) (*built, error) {
	cfg := exp.FullProfile().BaseConfig()
	cfg.Algorithm = "dor"
	cfg.Seed = seed
	gen := &traffic.Generator{
		Pattern: traffic.Uniform{Nodes: cfg.Mesh().Nodes()},
		Rate:    uniformRate,
		Size:    traffic.FixedSize(1),
	}
	return assemble(cfg, tr, gen)
}

// hotspotConfig is the base configuration sim.HotspotRun receives.
func hotspotConfig(seed int64) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Algorithm = "footprint"
	cfg.Seed = seed
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = hotspotPhase, hotspotPhase, hotspotPhase
	return cfg
}

// buildHotspot assembles the simulation sim.HotspotRun would for
// hotspotConfig(seed), keeping the handle the post-run checks need.
func buildHotspot(seed int64, tr *tracer) (*built, error) {
	cfg := hotspotConfig(seed)
	cfg = sim.Identify(cfg,
		fmt.Sprintf("footprint hot=%.2f", hotspotRate),
		fmt.Sprintf("hotspot/bg=%.6f/hot=%.6f", hotspotBgRate, hotspotRate)).Apply(cfg)
	flows := traffic.HotspotFlows()
	sources := make([]int, 0, len(flows.Flows))
	for s := range flows.Flows {
		sources = append(sources, s)
	}
	sort.Ints(sources)
	hot := &traffic.Generator{Nodes: sources, Pattern: flows, Rate: hotspotRate, Class: flit.ClassHotspot}
	bg := &traffic.Generator{
		Nodes:   traffic.BackgroundNodes(cfg.Mesh()),
		Pattern: traffic.Uniform{Nodes: cfg.Mesh().Nodes()},
		Rate:    hotspotBgRate,
		Class:   flit.ClassBackground,
	}
	return assemble(cfg, tr, hot, bg)
}

func hotspotReference(seed int64) (string, error) {
	pt, err := sim.HotspotRun(hotspotConfig(seed), hotspotBgRate, hotspotRate)
	if err != nil {
		return "", err
	}
	return digestResults(pt.Result), nil
}

// pairProfile is the effort exp.RunTracePair receives.
func pairProfile() exp.Profile {
	p := exp.FullProfile()
	p.TraceCycles = pairCycles
	return p
}

// buildPair assembles the simulation exp.RunTracePair would for the pair
// under Footprint, timing trace generation and merging.
func buildPair(seed int64, tr *tracer) (*built, error) {
	p := pairProfile()
	wa, err := trace.WorkloadByName(pairA)
	if err != nil {
		return nil, err
	}
	wb, err := trace.WorkloadByName(pairB)
	if err != nil {
		return nil, err
	}
	cfg := p.BaseConfig()
	cfg.Algorithm = "footprint"
	cfg = sim.Identify(cfg, fmt.Sprintf("Figure 10 %s+%s/footprint", pairA, pairB),
		fmt.Sprintf("trace/%s+%s/seed=%d", pairA, pairB, seed)).Apply(cfg)
	mesh := cfg.Mesh()
	t0 := time.Now()
	ta := trace.Generate(wa, mesh, p.TraceCycles, seed)
	tb := trace.Generate(wb, mesh, p.TraceCycles, sim.DeriveSeed(seed, "trace/secondary/"+pairB))
	t1 := time.Now()
	merged := trace.Merge(ta, tb)
	if tr != nil {
		tr.generateTime += t1.Sub(t0)
		tr.mergeTime += time.Since(t1)
	}
	cfg.WarmupCycles = 0
	cfg.MeasureCycles = p.TraceCycles
	cfg.DrainCycles = 4 * p.TraceCycles
	player := trace.NewPlayer(merged)
	b, err := assemble(cfg, tr, player)
	if err != nil {
		return nil, err
	}
	b.player = player
	return b, nil
}

func pairReference(seed int64) (string, error) {
	res, err := exp.RunTracePair(pairProfile(), "footprint", pairA, pairB, seed)
	if err != nil {
		return "", err
	}
	return digestResults(res), nil
}

// simOp turns a builder into a one-run operation: build (timed as
// set-up), run (timed as wall), then check and digest the result.
func simOp(build func(int64, *tracer) (*built, error)) func(int64, *tracer) op {
	return func(seed int64, tr *tracer) (o op) {
		o.runs = 1
		defer func() {
			if r := recover(); r != nil {
				o.fail(fmt.Sprintf("panic: %v", r))
			}
		}()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		b, err := build(seed, tr)
		if err != nil {
			o.fail(err.Error())
			return o
		}
		t1 := time.Now()
		if tr != nil {
			tr.begin(t1)
		}
		res := b.sim.Run()
		t2 := time.Now()
		if tr != nil {
			tr.end(t2)
		}
		runtime.ReadMemStats(&m1)
		o.setup, o.wall = t1.Sub(t0), t2.Sub(t1)
		o.allocBytes = m1.TotalAlloc - m0.TotalAlloc
		o.cycles, o.flitHops = res.Runtime.Cycles, res.Runtime.FlitHops
		o.fail(checkSim(res, b)...)
		o.digest = digestResults(res)
		o.model = modelOf(res)
		if tr != nil {
			o.layers = tr.simLayers(res, b)
		}
		return o
	}
}

func modelOf(res *sim.Result) model {
	return model{
		latency:  res.AvgLatency(flit.ClassBackground),
		p99:      res.P99,
		accepted: res.Accepted,
	}
}

// figure5Profile is the quick profile on figureJobs workers.
func figure5Profile() exp.Profile {
	p := exp.QuickProfile()
	p.Jobs = figureJobs
	return p
}

// figure5Op regenerates Figure 5's uniform panel. exp builds and runs the
// simulations itself, so per-run checks use what the Results expose, and
// an instrumented op adds the existing sampled phase profile.
func figure5Op(_ int64, tr *tracer) (o op) {
	defer func() {
		if r := recover(); r != nil {
			o.runs = max(o.runs, 1)
			o.fail(fmt.Sprintf("panic: %v", r))
		}
	}()
	p := figure5Profile()
	if tr != nil {
		p.Obs.Profile = true
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	cs, err := exp.Figure5(p, "uniform")
	o.wall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	o.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	if err != nil {
		o.runs = 1
		o.fail(err.Error())
		return o
	}
	var all []*sim.Result
	for _, c := range cs.Curves {
		for _, pt := range c.Points {
			o.runs++
			o.cycles += pt.Result.Runtime.Cycles
			o.flitHops += pt.Result.Runtime.FlitHops
			o.fail(checkResult(pt.Result)...)
			all = append(all, pt.Result)
		}
		if c.Algorithm == "footprint" && len(c.Points) > 0 {
			o.model = modelOf(c.Points[0].Result)
			o.satThroughput = exp.SaturationFromCurve(c)
		}
	}
	o.digest = digestResults(all...)
	if tr != nil {
		o.layers = figure5Layers(cs, o.wall)
		// exp assembles its simulations out of reach; time the same
		// assembly outside the call instead.
		d, err := figure5Setup()
		if err != nil {
			o.fail("set-up: " + err.Error())
		}
		o.layers["sim.new_s"] = d.Seconds()
	}
	return o
}

// figure5Setup times what Figure 5 pays before each curve's first cycle:
// assembling one Table 2 simulation per algorithm.
func figure5Setup() (time.Duration, error) {
	p := figure5Profile()
	t0 := time.Now()
	for _, alg := range exp.SyntheticAlgorithms() {
		cfg := p.BaseConfig()
		cfg.Algorithm = alg
		gen := &traffic.Generator{Pattern: traffic.Uniform{Nodes: cfg.Mesh().Nodes()}, Rate: p.Rates[0]}
		if _, err := sim.New(cfg, gen); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}
