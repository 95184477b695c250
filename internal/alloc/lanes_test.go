package alloc

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"vix/internal/sim"
)

// TestLanesKeepScratchApart holds every kind's lanes apart: two
// goroutines call Allocate at once on disjoint views of one pool, each in
// its own lane (views 0 and 1 in lane 0, 2 and 3 in lane 1), and each
// call's grants must equal a standalone twin's, read once both calls of
// the step have returned. Scratch the two lanes share fails it: a shared
// grant buffer at every step, shared request words or candidates as soon
// as the two calls overlap in time, and under the race detector (make
// race) as a data race.
func TestLanesKeepScratchApart(t *testing.T) {
	const views, lanes, steps = 4, 2, 300
	for _, kind := range Kinds() {
		for _, cfg := range ReferenceGeometries() {
			if CheckGeometry(kind, cfg) != nil {
				continue
			}
			pooled, err := NewMany(kind, cfg, views, lanes)
			if err != nil {
				t.Fatal(err)
			}
			alone := make([]Allocator, views)
			for i := range alone {
				alone[i] = MustNew(kind, cfg)
			}
			var rngs [lanes]*sim.RNG
			for l := range rngs {
				rngs[l] = sim.NewRNG(uint64(58 + l))
			}
			var got, want [lanes][]Grant
			var which [lanes]int
			for step := range steps {
				var wg sync.WaitGroup
				for l := range lanes {
					wg.Add(1)
					go func() {
						defer wg.Done()
						i := l*views/lanes + step%(views/lanes)
						rs := lockstepRequests(rngs[l], cfg, step)
						rs.Lane = l
						rs.Cycle = int64(step / (views / lanes)) // view i's calls are consecutive cycles: pc chains
						which[l] = i
						got[l] = pooled[i].Allocate(rs)
						want[l] = alone[i].Allocate(rs)
					}()
				}
				wg.Wait()
				where := fmt.Sprintf("%s %+v step %d", kind, cfg, step)
				for l := range lanes {
					if !slices.Equal(got[l], want[l]) {
						t.Fatalf("%s: lane %d's view %d granted %v, its standalone twin %v", where, l, which[l], got[l], want[l])
					}
				}
				assertDrained(t, pooled[0], where)
			}
			for i := range pooled {
				if p, a := pointerState(pooled[i]), pointerState(alone[i]); !slices.Equal(p, a) {
					t.Fatalf("%s %+v: view %d's pointers are %v, its standalone twin's %v", kind, cfg, i, p, a)
				}
			}
		}
	}
}
