package alloc

import (
	"fmt"
	"slices"
	"testing"

	"vix/internal/sim"
)

// TestPooledViewsMatchStandalone holds every kind's pooled views to
// standalone instances: NewMany's views and as many New instances take
// the same calls — random request sets (ages too) at each instance's
// Cycle, which idle spans move on without a call, and the odd Reset —
// with the instance, and in a pool of two lanes the lane, chosen
// at random each step, so calls interleave across the pool. After every
// call the called pair's grants, and every pair's pointer state, must be
// equal, and every lane's lazily drained words zero: a segment that
// overlaps a neighbour's, or a write that strays out of its own, fails at
// the step it happens.
func TestPooledViewsMatchStandalone(t *testing.T) {
	const n, steps = 5, 600
	for _, kind := range Kinds() {
		for _, cfg := range ReferenceGeometries() {
			if CheckGeometry(kind, cfg) != nil {
				continue
			}
			for _, lanes := range []int{1, 2} {
				pooledViewsMatchStandalone(t, kind, cfg, n, lanes, steps)
			}
		}
	}
}

func pooledViewsMatchStandalone(t *testing.T, kind Kind, cfg Config, n, lanes, steps int) {
	t.Helper()
	pooled, err := NewMany(kind, cfg, n, lanes)
	if err != nil {
		t.Fatal(err)
	}
	alone := make([]Allocator, n)
	for i := range alone {
		alone[i] = MustNew(kind, cfg)
	}
	rng := sim.NewRNG(406)
	clock := make([]int64, n) // per instance: its next call's Cycle
	for step := 0; step < steps; step++ {
		i := rng.Intn(n)
		switch roll := rng.Intn(20); {
		case roll == 0:
			pooled[i].Reset()
			alone[i].Reset()
		case roll <= 2:
			clock[i] += int64(1 + rng.Intn(cfg.Rows()+cfg.Ports+2))
		default:
			rs := lockstepRequests(rng, cfg, step)
			for j, r := range rs.Requests {
				rs.Requests[j].Age = rng.Intn(8)
				rs.Age[r.Port*cfg.VCs+r.VC] = int32(rs.Requests[j].Age)
			}
			rs.Lane = rng.Intn(lanes)
			rs.Cycle = clock[i]
			clock[i]++
			gp, ga := pooled[i].Allocate(rs), alone[i].Allocate(rs)
			if !slices.Equal(gp, ga) {
				t.Fatalf("%s: pooled granted %v, standalone %v", where(kind, cfg, lanes, step, i), gp, ga)
			}
		}
		for j := range pooled {
			if p, a := pointerState(pooled[j]), pointerState(alone[j]); !slices.Equal(p, a) {
				t.Fatalf("%s: instance %d's pointers are %v pooled, %v standalone", where(kind, cfg, lanes, step, i), j, p, a)
			}
			if !drained(pooled[j]) {
				assertDrained(t, pooled[j], where(kind, cfg, lanes, step, i))
			}
		}
	}
}

func where(kind Kind, cfg Config, lanes, step, i int) string {
	return fmt.Sprintf("%s %+v, %d lanes, step %d instance %d", kind, cfg, lanes, step, i)
}

// drained reports whether a's lazily drained words are all zero.
func drained(a Allocator) bool {
	if lw, ok := a.(interface{ lazyWords() []wordBank }); ok {
		for _, m := range lw.lazyWords() {
			for _, w := range m.words {
				if w != 0 {
					return false
				}
			}
		}
	}
	return true
}

// TestNewManyRefusesWhatNewRefuses: NewMany checks what New checks, a
// negative count and a lane count below one.
func TestNewManyRefusesWhatNewRefuses(t *testing.T) {
	good := Config{Ports: 5, VCs: 6, VirtualInputs: 2}
	for _, c := range []struct {
		kind     Kind
		cfg      Config
		n, lanes int
	}{
		{KindSeparableIF, Config{}, 4, 1},
		{KindIdeal, good, 4, 1},
		{KindSparoflo, good, 4, 1},
		{"bogus", good, 4, 1},
		{KindSeparableIF, good, -1, 1},
		{KindSeparableIF, good, 4, 0},
	} {
		if _, err := NewMany(c.kind, c.cfg, c.n, c.lanes); err == nil {
			t.Errorf("NewMany(%s, %+v, %d, %d) succeeded", c.kind, c.cfg, c.n, c.lanes)
		}
	}
	if as, err := NewMany(KindSeparableIF, good, 0, 1); err != nil || len(as) != 0 {
		t.Errorf("NewMany of none = %v, %v", as, err)
	}
}

// pointerState lists an allocator's persistent state: its arbiter
// pointers and chaining history.
func pointerState(a Allocator) []int {
	var st []int
	switch v := a.(type) {
	case *SeparableIF:
		st = ifPointers(v)
	case *Ideal:
		st = ifPointers(&v.SeparableIF)
	case *SeparableAge:
		st = ifPointers(&v.SeparableIF)
	case *PacketChaining:
		in := v.inner()
		st = ifPointers(&in)
		st = appendInts(st, seg(v.p.prevOut, v.i, v.p.rows))
		st = appendInts(st, seg(v.p.chainPtr, v.i, v.p.rows))
		st = append(st, int(v.p.stamp[v.i]))
	case *Wavefront:
		st = appendInts(st, seg(v.p.vcPtr, v.i, v.p.rows))
	case *ISLIP:
		p := v.p
		st = appendInts(appendInts(appendInts(st,
			seg(p.grantPtr, v.i, p.ports)), seg(p.acceptPtr, v.i, p.rows)), seg(p.vcPtr, v.i, p.rows))
	case *AugmentingPath:
		st = appendInts(st, seg(v.p.vcPtr, v.i, v.p.rows))
	case *Sparoflo:
		p := v.p
		st = appendInts(appendInts(appendInts(st,
			seg(p.inPtr, v.i, p.ports)), seg(p.outPtr, v.i, p.ports)), seg(p.portPtr, v.i, p.ports))
	default:
		panic(fmt.Sprintf("pointerState: %T", a))
	}
	return st
}

func ifPointers(s *SeparableIF) []int {
	return appendInts(appendInts(nil, seg(s.p.inPtr, s.i, s.p.rows)), seg(s.p.outPtr, s.i, s.p.ports))
}

func appendInts[T int8 | int16](dst []int, src []T) []int {
	for _, x := range src {
		dst = append(dst, int(x))
	}
	return dst
}
