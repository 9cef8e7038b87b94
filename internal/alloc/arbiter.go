// Package alloc provides the arbiters and allocators used by the router
// microarchitecture: a round-robin arbiter for switch allocation and a
// separable priority-based allocator for virtual-channel allocation, as
// configured in Table 2 of the Footprint paper ("priority-based VC
// allocator, Round-Robin switch arbiter").
package alloc

// Arbiter selects one requester out of a set, implementing some fairness
// policy across successive invocations.
type Arbiter interface {
	// Arbitrate returns the granted index among requests[i]==true entries,
	// or -1 when nothing is requested. The arbiter updates its internal
	// fairness state only when a grant is made.
	Arbitrate(requests []bool) int
}

// RoundRobin is a classic round-robin arbiter over n requesters. The zero
// value is not usable; construct with NewRoundRobin.
type RoundRobin struct {
	n    int
	next int // index with the highest priority this round
}

// NewRoundRobin returns a round-robin arbiter for n requesters.
func NewRoundRobin(n int) *RoundRobin {
	if n <= 0 {
		panic("alloc: round-robin arbiter needs at least one requester")
	}
	return &RoundRobin{n: n}
}

// Arbitrate grants the first requester at or after the round-robin pointer
// and advances the pointer past the winner. The wrap-around search is two
// linear scans so the hot path avoids a modulo per step.
func (a *RoundRobin) Arbitrate(requests []bool) int {
	if len(requests) != a.n {
		panic("alloc: request vector size mismatch")
	}
	for idx := a.next; idx < a.n; idx++ {
		if requests[idx] {
			a.next = (idx + 1) % a.n
			return idx
		}
	}
	for idx := 0; idx < a.next; idx++ {
		if requests[idx] {
			a.next = (idx + 1) % a.n
			return idx
		}
	}
	return -1
}

// Priority orders virtual-channel requests as in Algorithm 1 of the paper.
// Higher values win allocation. One byte, so a routing.Request packs into
// 16 bytes.
type Priority uint8

// Request priorities, lowest to highest (Algorithm 1, with one extra
// level for footprint register affinity): escape requests are Lowest,
// busy/adaptive requests Low, occupied footprint VCs Medium, idle VCs
// High, and idle VCs whose footprint register matches the requester's
// destination Highest.
const (
	None    Priority = iota // no request
	Lowest                  // escape VC
	Low                     // adaptive / busy VCs
	Medium                  // occupied footprint VCs
	High                    // idle VCs
	Highest                 // idle VCs with matching footprint register
)

// String implements fmt.Stringer.
func (p Priority) String() string {
	switch p {
	case None:
		return "none"
	case Lowest:
		return "lowest"
	case Low:
		return "low"
	case Medium:
		return "medium"
	case High:
		return "high"
	case Highest:
		return "highest"
	default:
		return "invalid"
	}
}

// PriorityRoundRobin arbitrates among prioritized requests: the highest
// priority level present wins, with round-robin fairness among equals.
type PriorityRoundRobin struct {
	n    int
	next int
	mask []bool // scratch
}

// NewPriorityRoundRobin returns a prioritized round-robin arbiter for n
// requesters.
func NewPriorityRoundRobin(n int) *PriorityRoundRobin {
	if n <= 0 {
		panic("alloc: priority arbiter needs at least one requester")
	}
	return &PriorityRoundRobin{n: n, mask: make([]bool, n)}
}

// Arbitrate returns the index of the winning request (priorities[i] > None)
// or -1. Ties at the top priority level are broken round-robin.
func (a *PriorityRoundRobin) Arbitrate(priorities []Priority) int {
	if len(priorities) != a.n {
		panic("alloc: priority vector size mismatch")
	}
	best := None
	for _, p := range priorities {
		if p > best {
			best = p
		}
	}
	if best == None {
		return -1
	}
	for i := range a.mask {
		a.mask[i] = priorities[i] == best
	}
	for i := 0; i < a.n; i++ {
		idx := (a.next + i) % a.n
		if a.mask[idx] {
			a.next = (idx + 1) % a.n
			return idx
		}
	}
	return -1
}
