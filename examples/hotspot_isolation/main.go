// Hotspot isolation: the paper's headline scenario (Figure 9). The eight
// persistent flows of Table 3 oversubscribe four endpoints while every
// other node sends uniform background traffic at 30% load. The example
// prints the background latency under Footprint and DBAR as the hotspot
// rate rises, then reports the highest hotspot rate at which each kept
// the background stable and which one held out longer. The paper claims
// Footprint does; the verdict line is computed from the curves, not
// assumed.
package main

import (
	"fmt"
	"log"

	"nocsim"
)

func main() {
	cfg := nocsim.DefaultConfig()
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 1500, 2500, 8000

	rates := []float64{0.15, 0.30, 0.45, 0.60}
	curves := map[string][]nocsim.HotspotPoint{}
	for _, alg := range []string{"footprint", "dbar"} {
		cfg.Algorithm = alg
		pts, err := nocsim.HotspotCurve(cfg, 0.3, rates)
		if err != nil {
			log.Fatal(err)
		}
		curves[alg] = pts
	}

	fmt.Println("== background latency under endpoint congestion (Table 3 flows + 30% uniform) ==")
	fmt.Printf("%-10s %14s %14s\n", "hot rate", "footprint", "dbar")
	for i, r := range rates {
		cell := func(alg string) string {
			p := curves[alg][i]
			if !p.Stable {
				return "saturated"
			}
			return fmt.Sprintf("%.1f cycles", p.BackgroundLatency)
		}
		fmt.Printf("%-10.2f %14s %14s\n", r, cell("footprint"), cell("dbar"))
	}

	fmt.Println()
	held := map[string]int{}
	for _, alg := range []string{"footprint", "dbar"} {
		held[alg] = stableUpTo(curves[alg])
		if i := held[alg]; i < 0 {
			fmt.Printf("%-10s background saturated from the lowest hot rate, %.2f\n", alg+":", rates[0])
		} else {
			fmt.Printf("%-10s background stable up to hot rate %.2f\n", alg+":", rates[i])
		}
	}
	switch fp, db := held["footprint"], held["dbar"]; {
	case fp < 0 && db < 0:
		fmt.Println("Neither algorithm kept the background stable at any hot rate tried.")
	case fp == len(rates)-1 && db == len(rates)-1:
		fmt.Println("Both kept the background stable at every hot rate tried.")
	case fp > db:
		fmt.Println("Footprint held the background stable to a higher hot rate than DBAR.")
	case db > fp:
		fmt.Println("DBAR held the background stable to a higher hot rate than Footprint.")
	default:
		fmt.Println("Neither held out longer: both saturated at the same hot rate.")
	}
}

// stableUpTo returns the index of the last point before the curve's
// first saturated one, or -1 when it saturates from the first point.
func stableUpTo(pts []nocsim.HotspotPoint) int {
	for i, p := range pts {
		if !p.Stable {
			return i - 1
		}
	}
	return len(pts) - 1
}
