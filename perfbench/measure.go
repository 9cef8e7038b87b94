package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"nocsim/internal/sim"
	"nocsim/internal/stats"
)

// figure5SetupReps is how many times figure5-quick-uniform's set-up is
// timed; the median is reported.
const figure5SetupReps = 7

// tally accumulates attempted and failed runs and, per input set, the
// reference digest every operation on it must reproduce.
type tally struct {
	attempted, failed int
	digests           []string
	correct           bool
}

func newTally(inputs int) *tally { return &tally{digests: make([]string, inputs), correct: true} }

// add accounts one operation on input set i, checking its digest against
// the first one seen for that input; a differing digest fails the whole
// operation.
func (t *tally) add(i int, o *op) {
	if o.digest != "" {
		if t.digests[i] == "" {
			t.digests[i] = o.digest
		} else if o.digest != t.digests[i] {
			o.failed = o.runs
			o.failures = append(o.failures, fmt.Sprintf("result digest %.12s differs from the reference %.12s", o.digest, t.digests[i]))
		}
	}
	t.attempted += o.runs
	t.failed += o.failed
	if o.failed > 0 {
		t.correct = false
	}
	for _, f := range o.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", f)
	}
}

// inputSeeds derives a workload's per-input seeds from the -seed flag.
func inputSeeds(w workload, seed int64) []int64 {
	seeds := make([]int64, w.inputs)
	for i := range seeds {
		seeds[i] = sim.DeriveSeed(seed, fmt.Sprintf("perfbench/input=%d", i))
	}
	return seeds
}

// rounds runs one operation per input set, in order, round after round
// until budget has elapsed, at least once; a garbage collection before
// each operation starts it on a settled heap. It returns rounds[r][i].
func rounds(budget time.Duration, seeds []int64, run func(int64) op, t *tally) [][]op {
	var out [][]op
	start := time.Now()
	for len(out) == 0 || time.Since(start) < budget {
		round := make([]op, len(seeds))
		for i, s := range seeds {
			runtime.GC()
			round[i] = run(s)
			t.add(i, &round[i])
		}
		out = append(out, round)
	}
	return out
}

// measureEndToEnd is the untraced run. setup_s is the median over all
// set-ups timed; every other timed metric is the median over rounds of
// the round's per-run figure, so each sample weighs the same inputs.
func measureEndToEnd(w workload, seed int64, budget time.Duration) report {
	seeds := inputSeeds(w, seed)
	t := newTally(len(seeds))
	if w.reference != nil {
		d, err := w.reference(seeds[0])
		o := op{runs: 1, digest: d}
		if err != nil {
			o.fail("reference run: " + err.Error())
		}
		t.add(0, &o)
	}
	var setups []float64
	if w.setup != nil {
		for i := 0; i < figure5SetupReps; i++ {
			runtime.GC()
			d, err := w.setup()
			if err != nil {
				o := op{runs: 1}
				o.fail("set-up: " + err.Error())
				t.add(0, &o)
				continue
			}
			setups = append(setups, d.Seconds())
		}
	}
	rs := rounds(budget, seeds, func(s int64) op { return w.op(s, nil) }, t)

	var walls, cps, hps, allocs []float64
	for _, round := range rs {
		var wall, cycles, hops, alloc float64
		for _, o := range round {
			if w.setup == nil {
				setups = append(setups, o.setup.Seconds())
			}
			wall += o.wall.Seconds()
			cycles += float64(o.cycles)
			hops += float64(o.flitHops)
			alloc += float64(o.allocBytes)
		}
		n := float64(len(round))
		walls = append(walls, wall/n)
		cps = append(cps, stats.Ratio(cycles, wall))
		hps = append(hps, stats.Ratio(hops, wall))
		allocs = append(allocs, alloc/n/(1<<20))
	}
	ms := map[string]metric{
		"setup_s":         {stats.Median(setups), "s"},
		"wall_s":          {stats.Median(walls), "s"},
		"cycles_per_s":    {stats.Median(cps), "1/s"},
		"flit_hops_per_s": {stats.Median(hps), "1/s"},
		"alloc_mb":        {stats.Median(allocs), "MB"},
		"peak_rss_mb":     {peakRSSMB(), "MB"},
	}
	fmt.Printf("%s seed=%d: %d rounds of %d input sets, %d runs\n", w.name, seed, len(rs), len(seeds), t.attempted)
	for i, o := range rs[0] {
		fmt.Printf("  input %d: digest %s latency %.6g p99 %.6g accepted %.6g\n",
			i, t.digests[i], o.model.latency, o.model.p99, o.model.accepted)
	}
	return finish(t, ms)
}

// measureLayers is the traced run: one untraced round for the reference
// digests, then instrumented rounds for the budget. Each per-layer metric
// is the mean over input sets of its median over rounds.
func measureLayers(w workload, seed int64, budget time.Duration) report {
	seeds := inputSeeds(w, seed)
	t := newTally(len(seeds))
	for i, s := range seeds {
		runtime.GC()
		plain := w.op(s, nil)
		t.add(i, &plain)
	}
	rs := rounds(budget, seeds, func(s int64) op { return w.op(s, &tracer{}) }, t)

	for _, round := range rs {
		for i := range round {
			o := &round[i]
			if o.layers == nil { // the operation failed before it ran
				o.layers = map[string]float64{}
			}
			o.layers["sim_latency_cycles"] = o.model.latency
			o.layers["sim_p99_latency_cycles"] = o.model.p99
			o.layers["sim_accepted_flits"] = o.model.accepted
			o.layers["sim_sat_throughput"] = o.satThroughput
			o.layers["bench.traced_wall_s"] = o.wall.Seconds()
		}
	}
	ms := map[string]metric{}
	for _, lm := range layerMetrics {
		var mean float64
		for i := range seeds {
			var vs []float64
			for _, round := range rs {
				vs = append(vs, round[i].layers[lm.name])
			}
			mean += stats.Median(vs) / float64(len(seeds))
		}
		ms[lm.name] = metric{mean, lm.unit}
	}
	fmt.Printf("%s seed=%d traced: %d instrumented rounds of %d input sets\n", w.name, seed, len(rs), len(seeds))
	for i, d := range t.digests {
		fmt.Printf("  input %d: digest %s\n", i, d)
	}
	return finish(t, ms)
}

// finish prints the metrics for a human reader and builds the report; a
// metric that is not a finite number fails the run.
func finish(t *tally, ms map[string]metric) report {
	for name, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: failure: metric %s is %v\n", name, m.Value)
			t.correct = false
			ms[name] = metric{0, m.Unit}
		}
	}
	printMetrics(ms)
	return report{Correct: t.correct, Attempted: t.attempted, Failed: t.failed, Metrics: ms}
}

// peakRSSMB reads the process's peak resident set (VmHWM) from
// /proc/self/status; the process runs a single workload.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}
