package service

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestQuotaTableIsBounded sends 100 000 distinct clients, each arriving
// after the previous one's bucket has refilled: every bucket is then
// the same as an absent one, and the table must not keep them.
func TestQuotaTableIsBounded(t *testing.T) {
	var now int64
	q := newQuotas(2, 4, func() int64 { return now })
	biggest := 0
	for i := 0; i < 100_000; i++ {
		if ok, _ := q.admit(fmt.Sprintf("client-%d", i), 3); !ok {
			t.Fatalf("fresh client %d refused", i)
		}
		biggest = max(biggest, len(q.buckets))
		now += 2e9 // past the 1.5 s the 3 spent tokens take to refill
	}
	if biggest > minSweep {
		t.Errorf("quota table grew to %d buckets, want <= %d", biggest, minSweep)
	}
}

// TestQuotaPruningIsInvisible replays one scripted admit sequence —
// clients from a pool larger than the sweep threshold, some returning
// before their bucket refilled and some after, with batches larger than
// the burst — against a pruning table and one that never prunes. Every
// (ok, retryAfter) must match.
func TestQuotaPruningIsInvisible(t *testing.T) {
	var now int64
	clock := func() int64 { return now }
	pruned := newQuotas(3, 5, clock)
	kept := newQuotas(3, 5, clock)
	kept.sweepAt = math.MaxInt

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50_000; i++ {
		client := fmt.Sprintf("c%d", rng.Intn(400))
		n := 1 + rng.Intn(6)
		now += rng.Int63n(20e6)
		ok1, after1 := pruned.admit(client, n)
		ok2, after2 := kept.admit(client, n)
		if ok1 != ok2 || after1 != after2 {
			t.Fatalf("step %d (%s, %d at %d ns): pruned table says (%v, %v), unpruned (%v, %v)",
				i, client, n, now, ok1, after1, ok2, after2)
		}
	}
	if len(pruned.buckets) >= len(kept.buckets) {
		t.Errorf("pruning kept %d of %d buckets; the script never exercised a sweep", len(pruned.buckets), len(kept.buckets))
	}
}
