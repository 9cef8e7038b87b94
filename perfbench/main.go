// Command perfbench is nocsim's end-to-end and per-layer benchmark. It
// runs one workload for a fixed host-time budget and prints one JSON
// object as the last line of standard output:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// Every workload is built from the seed given on the command line and run
// through the simulator's public entry points. Without -trace the metrics
// are the end-to-end ones (host time, throughput, memory and the modelled
// design's own statistics); with -trace a separately instrumented run
// reports the per-layer split instead. WORKLOADS.md describes the
// workloads and metrics. Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload uniform-stable-dor --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's final output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "host seconds to keep starting measured operations")
	traced := flag.Int("trace", 0, "1 runs the instrumented per-layer measurement instead of the end-to-end one")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload one of %s, -seconds > 0 and -trace 0 or 1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var rep report
	if *traced == 1 {
		rep = measureLayers(w, *seed, budget)
	} else {
		rep = measureEndToEnd(w, *seed, budget)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding the report:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// printMetrics writes the metrics as an aligned name/value/unit table,
// for a human reading the run before the JSON line.
func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
