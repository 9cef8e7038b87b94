package router

import (
	"fmt"
	"slices"

	"nocsim/internal/topo"
)

// CheckAggregates rebuilds every incrementally maintained aggregate of the
// router from its struct-of-arrays state and reports the first one that
// disagrees: the per-port idle and allocatable masks, the per-(port,
// destination) owner and register masks, the routing/active masks and
// their totals, the buffered and staged flit totals, and the head-packet
// arrays (inDest, inPkt) of every routing VC against the front flit.
func (r *Router) CheckAggregates() error {
	P := topo.NumPorts
	own := make([]uint32, len(r.ownMask))
	reg := make([]uint32, len(r.regMask))
	routing, active, bufTotal := 0, 0, 0
	for p := 0; p < P; p++ {
		var idle, allocatable, routingM, activeM uint32
		for v := 0; v < r.vcs; v++ {
			i := r.idx(topo.Direction(p), v)
			bit := uint32(1) << uint(v)
			free := !r.outAlloc[i] && !r.outAwaitTail[i]
			if free {
				allocatable |= bit
			}
			if free && int(r.outCredits[i]) == r.cfg.BufDepth {
				idle |= bit
			}
			if o := r.outOwner[i]; o >= 0 {
				own[p*r.nodes+int(o)] |= bit
			}
			if o := r.outRegOwner[i]; o >= 0 {
				reg[p*r.nodes+int(o)] |= bit
			}
			bufTotal += int(r.bufLen[i])
			switch r.inState[i] {
			case vcRouting:
				routingM |= bit
				routing++
				f := r.bufFront(i)
				if f == nil {
					return fmt.Errorf("port %v vc %d: routing with an empty buffer", topo.Direction(p), v)
				}
				if r.inPkt[i] != f.Packet || int(r.inDest[i]) != f.Packet.Dest {
					return fmt.Errorf("port %v vc %d: head packet %p dest %d, front flit's %p dest %d",
						topo.Direction(p), v, r.inPkt[i], r.inDest[i], f.Packet, f.Packet.Dest)
				}
			case vcActive:
				activeM |= bit
				active++
			}
		}
		for _, c := range []struct {
			name      string
			got, want uint32
		}{
			{"idle", r.idleMask[p], idle},
			{"allocatable", r.allocMask[p], allocatable},
			{"routing", r.routingMask[p], routingM},
			{"active", r.activeMask[p], activeM},
		} {
			if c.got != c.want {
				return fmt.Errorf("port %v: %s mask %#x, rebuilt %#x", topo.Direction(p), c.name, c.got, c.want)
			}
		}
	}
	if !slices.Equal(r.ownMask, own) {
		return fmt.Errorf("owner masks differ from the rebuild")
	}
	if !slices.Equal(r.regMask, reg) {
		return fmt.Errorf("register masks differ from the rebuild")
	}
	stageTotal := 0
	for o := 0; o < P; o++ {
		stageTotal += int(r.stageLen[o])
	}
	if routing != r.routingTotal || active != r.activeTotal || bufTotal != r.bufTotal || stageTotal != r.stageTotal {
		return fmt.Errorf("totals routing/active/buffered/staged %d/%d/%d/%d, rebuilt %d/%d/%d/%d",
			r.routingTotal, r.activeTotal, r.bufTotal, r.stageTotal, routing, active, bufTotal, stageTotal)
	}
	return nil
}
