package routing

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nocsim/internal/topo"
)

// Tests for the route memo. The two load-bearing properties — memoized
// decisions are byte-identical to live ones and consume the shared RNG
// stream identically — are checked by the differential fuzz target over
// walked reachable states; the unit tests below pin the pass-through,
// hit and empty-decision paths.

// stubCacheAlg is a deterministic draw-free memoizable algorithm, so
// tests can count live computations and script the request list length.
type stubCacheAlg struct {
	reqsPerCall int
	calls       int
}

func (s *stubCacheAlg) Name() string              { return "stub" }
func (s *stubCacheAlg) UsesEscape() bool          { return false }
func (s *stubCacheAlg) ConservativeRealloc() bool { return false }
func (s *stubCacheAlg) Route(ctx *Context, reqs []Request) []Request {
	s.calls++
	for v := 0; v < s.reqsPerCall; v++ {
		reqs = append(reqs, Request{Dir: topo.East, VC: v})
	}
	return reqs
}
func (s *stubCacheAlg) CacheSpec() (CacheSpec, bool) { return CacheSpec{}, true }

// plainStubAlg opts out of the memo: every decision must route live and
// count as a miss.
type plainStubAlg struct{ stubCacheAlg }

func (p *plainStubAlg) CacheSpec() (CacheSpec, bool) { return CacheSpec{}, false }

// scriptRand deals tie-break bits from a fixed script.
type scriptRand struct {
	bits []int
	i    int
}

func (s *scriptRand) Intn(n int) int {
	v := s.bits[s.i%len(s.bits)] % n
	s.i++
	return v
}

func TestCacheDisabledPassThrough(t *testing.T) {
	alg := &plainStubAlg{stubCacheAlg{reqsPerCall: 2}}
	m := topo.MustNew(4, 4)
	c := NewCache(alg, m)
	ctx := testCtx(m, 0, 5, bitsFakeView{newFakeView(4)})
	for i := 0; i < 3; i++ {
		if got := c.Requests(alg, ctx, nil); len(got) != 2 {
			t.Fatalf("pass-through requests = %v", got)
		}
	}
	if alg.calls != 3 {
		t.Errorf("live computations = %d, want 3 (no memo)", alg.calls)
	}
	if st := c.Stats(); st != (CacheStats{Misses: 3}) {
		t.Errorf("stats = %+v, want 3 misses and nothing else", st)
	}
}

func TestCacheMemoAndTableHit(t *testing.T) {
	alg := &stubCacheAlg{reqsPerCall: 3}
	m := topo.MustNew(4, 4)
	c := NewCache(alg, m)
	view := bitsFakeView{newFakeView(4)}

	first := c.Requests(alg, testCtx(m, 0, 5, view), nil)
	// 5 -> 10 has the same offset (+1, +1) and arrival port as 0 -> 5.
	second := c.Requests(alg, testCtx(m, 5, 10, view), nil)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("memoized decision diverged: %v / %v", first, second)
	}
	if alg.calls != 1 {
		t.Errorf("live computations = %d, want 1", alg.calls)
	}
	// A different offset, and the same offset from another port, miss.
	c.Requests(alg, testCtx(m, 0, 6, view), nil)
	ctx := testCtx(m, 0, 5, view)
	ctx.InDir = topo.West
	c.Requests(alg, ctx, nil)
	if st := c.Stats(); st.Hits != 1 || st.Misses != 3 {
		t.Errorf("stats = %+v, want 1 hit, 3 misses", st)
	}

	// A hit appends after an existing prefix, like Route does.
	prefix := []Request{{Dir: topo.Local, VC: 9}}
	got := c.Requests(alg, testCtx(m, 0, 5, view), prefix)
	if len(got) != 4 || got[0] != prefix[0] {
		t.Errorf("hit clobbered the caller's prefix: %v", got)
	}
}

func TestCacheEmptyDecisionCached(t *testing.T) {
	alg := &stubCacheAlg{reqsPerCall: 0}
	m := topo.MustNew(4, 4)
	c := NewCache(alg, m)
	ctx := testCtx(m, 0, 5, bitsFakeView{newFakeView(4)})
	if got := c.Requests(alg, ctx, nil); len(got) != 0 {
		t.Fatalf("first call = %v, want empty", got)
	}
	if got := c.Requests(alg, ctx, nil); len(got) != 0 {
		t.Fatalf("cached call = %v, want empty", got)
	}
	if st := c.Stats(); st.Hits != 1 || alg.calls != 1 {
		t.Errorf("empty decision not cached: stats %+v, %d live calls", st, alg.calls)
	}
}

// memoized lists the registered algorithms that opt into the memo.
func memoized() []string {
	var out []string
	for _, name := range Names() {
		if f, ok := MustNew(name).(Fingerprinter); ok {
			if _, ok := f.CacheSpec(); ok {
				out = append(out, name)
			}
		}
	}
	return out
}

// TestFingerprintInjectivity checks memo soundness for every memoized
// algorithm: two reachable states at the same (offset, InDir) slot must
// produce the same decision, whatever the rest of the router state. A
// violation means the algorithm reads something the memo key does not
// hold. It also pins the memoized set to DOR: an adaptive algorithm that
// opts in would be served stale decisions.
func TestFingerprintInjectivity(t *testing.T) {
	if got := memoized(); !reflect.DeepEqual(got, []string{"dor"}) {
		t.Fatalf("memoized algorithms = %q, want only dor", got)
	}
	m := topo.MustNew(6, 6)
	alg := MustNew("dor")
	c := NewCache(alg, m)
	rng := rand.New(rand.NewSource(11))
	seen := map[int]string{}
	dups := 0
	vcs := 2 + rng.Intn(7)
	for trial := 0; trial < 600; trial++ {
		cur := rng.Intn(m.Nodes())
		dest := rng.Intn(m.Nodes())
		if dest == cur {
			dest = (dest + 1) % m.Nodes()
		}
		// Walk the packet partway so (cur, inDir) is reachable.
		inDir := topo.Local
		for steps := rng.Intn(m.Hops(cur, dest)); steps > 0; steps-- {
			ctx := &Context{Mesh: m, Cur: cur, Dest: dest, InDir: inDir,
				View: bitsFakeView{fuzzRandView(rng, m.Nodes(), vcs)}, Rand: rng}
			reqs := alg.Route(ctx, nil)
			next, ok := m.Neighbor(cur, reqs[0].Dir)
			if !ok || next == dest {
				break
			}
			inDir = reqs[0].Dir.Opposite()
			cur = next
		}
		ctx := &Context{Mesh: m, Cur: cur, Dest: dest, InDir: inDir,
			View: bitsFakeView{fuzzRandView(rng, m.Nodes(), vcs)}, Rand: &scriptRand{bits: []int{1}}}
		key := c.index(ctx)
		sig := fmt.Sprintf("%v", alg.Route(ctx, nil))
		if prev, dup := seen[key]; dup {
			dups++
			if prev != sig {
				t.Fatalf("same memo slot %d, different decisions\nfirst:  %s\nsecond: %s", key, prev, sig)
			}
		} else {
			seen[key] = sig
		}
	}
	if dups == 0 {
		t.Error("no two trials shared a memo slot; the check compared nothing")
	}
}

// fuzzRandView builds a fakeView whose occupancy is drawn from rng.
func fuzzRandView(rng *rand.Rand, nodes, vcs int) *fakeView {
	b := make([]byte, 8*topo.NumPorts*vcs)
	rng.Read(b)
	return fuzzView(&fuzzBytes{data: b}, nodes, vcs)
}

// FuzzRouteCacheDifferential is the memo's correctness argument made
// executable: a packet under a memoized algorithm is walked through
// fuzz-chosen router states, and at every decision the memo path (one
// shared Cache, blocked re-routes, state churn under the blocked packet)
// is compared against a fresh live Route on its own RNG stream. Both the
// request lists and the RNG stream positions must stay identical — the
// two halves of the result-invisibility claim.
func FuzzRouteCacheDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3})
	for i := 0; i < 10; i++ {
		seed := make([]byte, 64)
		for j := range seed {
			seed[j] = byte(i*53 + j*7 + 3)
		}
		f.Add(seed)
	}
	names := memoized()
	f.Fuzz(func(t *testing.T, data []byte) {
		fb := &fuzzBytes{data: data}
		name := names[fb.pick(len(names))]
		alg := MustNew(name)

		m := topo.MustNew(3+fb.pick(6), 3+fb.pick(6))
		c := NewCache(alg, m)
		vcs := 2 + fb.pick(7)
		seed := int64(fb.next())
		ru := rand.New(rand.NewSource(seed)) // live reference stream
		rc := rand.New(rand.NewSource(seed)) // stream the memo path sees
		decisions := 0

		// Several packets share the memo, so later ones hit entries
		// earlier ones stored.
		for pkt := 0; pkt < 3; pkt++ {
			cur := fb.pick(m.Nodes())
			dest := fb.pick(m.Nodes())
			if dest == cur {
				dest = (dest + 1) % m.Nodes()
			}
			view := bitsFakeView{fuzzView(fb, m.Nodes(), vcs)}
			inDir := topo.Local

			check := func() []Request {
				decisions++
				want := alg.Route(&Context{Mesh: m, Cur: cur, Dest: dest,
					InDir: inDir, View: view, Rand: ru}, nil)
				got := c.Requests(alg, &Context{Mesh: m, Cur: cur, Dest: dest,
					InDir: inDir, View: view, Rand: rc}, nil)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s: memoized decision diverged at decision %d\nlive:     %v\nmemoized: %v\nstats: %v",
						name, decisions, want, got, c.Stats())
				}
				// Drawing one value from each stream checks the memo path
				// consumed exactly as many draws as the live computation.
				if u, cv := ru.Int63(), rc.Int63(); u != cv {
					t.Fatalf("%s: RNG stream diverged after decision %d (stats %v)",
						name, decisions, c.Stats())
				}
				return got
			}

			for hop := 0; hop < 12; hop++ {
				reqs := check()
				// Blocked re-routes: identical state.
				for n := fb.pick(3); n > 0; n-- {
					check()
				}
				// Router state changes under the blocked packet.
				if fb.next()%2 == 0 {
					view = bitsFakeView{fuzzView(fb, m.Nodes(), vcs)}
					reqs = check()
				}
				if len(reqs) == 0 {
					break
				}
				r := reqs[fb.pick(len(reqs))]
				next, ok := m.Neighbor(cur, r.Dir)
				if !ok || next == dest {
					break
				}
				inDir = r.Dir.Opposite()
				cur = next
				// A different router: its own view.
				view = bitsFakeView{fuzzView(fb, m.Nodes(), vcs)}
			}
		}
		if st := c.Stats(); st.Hits+st.Misses != int64(decisions) {
			t.Fatalf("%s: hits+misses = %d after %d decisions: %+v",
				name, st.Hits+st.Misses, decisions, st)
		}
	})
}
