package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"

	"nocsim/internal/flit"
	"nocsim/internal/sim"
)

// checkResult checks the invariants every run's Result must keep.
func checkResult(r *sim.Result) []string {
	var bad []string
	if r.MeasuredEjected > r.Measured {
		bad = append(bad, fmt.Sprintf("%d measured packets ejected but only %d measured", r.MeasuredEjected, r.Measured))
	}
	if r.Stable != (r.MeasuredEjected == r.Measured) {
		bad = append(bad, fmt.Sprintf("stable=%v with %d of %d measured packets ejected", r.Stable, r.MeasuredEjected, r.Measured))
	}
	return bad
}

// checkSim adds the invariants that need the simulation itself: the
// arena holds exactly the packets in flight, and a trace replay accounts
// for its records. In a replay every packet is a trace record, so each
// measured packet that ejected was delivered to the player, and the
// delivered and in-flight records together are at most the trace. The
// drain ends once the measured packets have ejected (sim.Result.Stable),
// so records that dependencies release after the measurement window may
// stay unplayed; trace.unreplayed_records reports how many.
func checkSim(r *sim.Result, b *built) []string {
	bad := checkResult(r)
	net := b.sim.Network()
	if live := net.Arena().Stats().Packets.Live; live != net.InFlight() {
		bad = append(bad, fmt.Sprintf("arena holds %d live packets but %d are in flight", live, net.InFlight()))
	}
	if p := b.player; p != nil {
		if r.MeasuredEjected > int64(p.Done) {
			bad = append(bad, fmt.Sprintf("%d measured packets ejected but the trace player saw %d deliveries", r.MeasuredEjected, p.Done))
		}
		if p.Done+net.InFlight() > p.Total {
			bad = append(bad, fmt.Sprintf("trace player delivered %d records with %d in flight, of %d", p.Done, net.InFlight(), p.Total))
		}
	}
	return bad
}

// digestResults is a SHA-256 over the Result fields the determinism
// golden tests compare: everything except the host-side Runtime,
// PerfProfile, Obs and Anatomy payloads and the Config. Two runs of the
// same inputs must produce the same digest whatever the host, the
// instrumentation or the simulator's speed.
func digestResults(rs ...*sim.Result) string {
	h := sha256.New()
	for _, r := range rs {
		writeResult(h, r)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeResult(h hash.Hash, r *sim.Result) {
	f := func(vs ...float64) {
		for _, v := range vs {
			if math.IsNaN(v) {
				v = -1 // one canonical encoding for an empty histogram
			}
			writeWord(h, math.Float64bits(v))
		}
	}
	n := func(vs ...int64) {
		for _, v := range vs {
			writeWord(h, uint64(v))
		}
	}
	b := func(v bool) {
		if v {
			n(1)
		} else {
			n(0)
		}
	}
	f(r.Offered, r.Accepted, r.P99)
	classes := make([]flit.Class, 0, len(r.Latency))
	for c := range r.Latency {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	n(int64(len(classes)))
	for _, c := range classes {
		s := r.Latency[c]
		n(int64(c), s.N())
		f(s.Sum(), s.Var(), s.Min(), s.Max())
	}
	n(r.Measured, r.MeasuredEjected)
	b(r.Stable)
	f(r.Purity, r.HoLDegree, r.BufferPurity)
	n(r.BlockEvents)
	b(r.Stalled)
	b(r.RouteCache != nil)
	if rc := r.RouteCache; rc != nil {
		n(rc.Hits, rc.MemoHits, rc.Misses, rc.Evictions, rc.DrawReplays)
	}
}

func writeWord(h hash.Hash, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.Write(buf[:])
}
