package arb

import (
	"testing"
	"testing/quick"

	"vix/internal/sim"
)

// arbiters under test, constructed fresh for each subtest.
func newArbiters(n int) map[string]Arbiter {
	return map[string]Arbiter{
		"roundrobin": NewRoundRobin(n),
	}
}

func TestArbitrateNoRequests(t *testing.T) {
	for name, a := range newArbiters(4) {
		if got := a.Arbitrate(make([]bool, 4)); got != -1 {
			t.Errorf("%s: empty requests returned %d, want -1", name, got)
		}
	}
}

func TestArbitrateSingleRequest(t *testing.T) {
	for name, a := range newArbiters(5) {
		for i := 0; i < 5; i++ {
			req := make([]bool, 5)
			req[i] = true
			if got := a.Arbitrate(req); got != i {
				t.Errorf("%s: single request at %d granted %d", name, i, got)
			}
		}
	}
}

// Property: the winner always has its request asserted.
func TestWinnerAlwaysRequested(t *testing.T) {
	rng := sim.NewRNG(1)
	for name, a := range newArbiters(8) {
		prop := func(bits uint8) bool {
			req := make([]bool, 8)
			any := false
			for i := range req {
				req[i] = bits&(1<<i) != 0
				any = any || req[i]
			}
			w := a.Arbitrate(req)
			if !any {
				return w == -1
			}
			if w < 0 || w >= 8 || !req[w] {
				return false
			}
			if rng.Bernoulli(0.5) {
				a.Ack(w)
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Property: Arbitrate is pure — calling it twice with the same requests
// returns the same winner.
func TestArbitrateIsStateless(t *testing.T) {
	for name, a := range newArbiters(6) {
		prop := func(bits uint8) bool {
			req := make([]bool, 6)
			for i := range req {
				req[i] = bits&(1<<i) != 0
			}
			return a.Arbitrate(req) == a.Arbitrate(req)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Under persistent full contention a round-robin arbiter serves requestors
// in strict rotation.
func TestRoundRobinRotation(t *testing.T) {
	a := NewRoundRobin(4)
	req := []bool{true, true, true, true}
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for i, w := range want {
		got := a.Arbitrate(req)
		if got != w {
			t.Fatalf("grant %d: got %d, want %d", i, got, w)
		}
		a.Ack(got)
	}
}

// If the winning request is not acknowledged, the same requestor must win
// again (iSLIP pointer semantics).
func TestRoundRobinPointerHeldWithoutAck(t *testing.T) {
	a := NewRoundRobin(4)
	req := []bool{false, true, true, false}
	first := a.Arbitrate(req)
	second := a.Arbitrate(req)
	if first != second {
		t.Fatalf("winner changed without Ack: %d then %d", first, second)
	}
}

func TestRoundRobinSkipsNonRequestors(t *testing.T) {
	a := NewRoundRobin(5)
	a.Ack(1) // priority now at 2
	req := []bool{true, false, false, false, true}
	if got := a.Arbitrate(req); got != 4 {
		t.Fatalf("got %d, want 4 (first requestor at/after pointer 2)", got)
	}
}

// Fairness: under full contention over n*k grants every requestor receives
// exactly k grants.
func TestFairnessUnderFullContention(t *testing.T) {
	const n, rounds = 6, 10
	for name, a := range newArbiters(n) {
		req := make([]bool, n)
		for i := range req {
			req[i] = true
		}
		counts := make([]int, n)
		for i := 0; i < n*rounds; i++ {
			w := a.Arbitrate(req)
			counts[w]++
			a.Ack(w)
		}
		for i, c := range counts {
			if c != rounds {
				t.Errorf("%s: requestor %d granted %d times, want %d", name, i, c, rounds)
			}
		}
	}
}

func TestResetRestoresInitialBehaviour(t *testing.T) {
	for name, a := range newArbiters(4) {
		req := []bool{true, true, true, true}
		first := a.Arbitrate(req)
		a.Ack(first)
		a.Ack(a.Arbitrate(req))
		a.Reset()
		if got := a.Arbitrate(req); got != first {
			t.Errorf("%s: after Reset first winner = %d, want %d", name, got, first)
		}
	}
}

func TestSizeAccessor(t *testing.T) {
	for name, a := range newArbiters(7) {
		if a.Size() != 7 {
			t.Errorf("%s: Size() = %d, want 7", name, a.Size())
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, f := range []func(){ // each must panic
		func() { NewRoundRobin(0) },
		func() { NewRoundRobin(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("constructor with invalid size did not panic")
				}
			}()
			f()
		}()
	}
}

func TestMismatchedRequestVectorPanics(t *testing.T) {
	for name, a := range newArbiters(4) {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: size mismatch did not panic", name)
				}
			}()
			a.Arbitrate(make([]bool, 3))
		}()
	}
}

// TestPickMatchesRoundRobin drives the packed-word decision and the
// vector arbiter with the same request lines, acknowledging a random
// subset of grants, and demands the same winner and the same pointer
// every step. Sizes straddle the word boundary so PickWords' wrap through
// a partly-scanned word is covered.
func TestPickMatchesRoundRobin(t *testing.T) {
	rng := sim.NewRNG(7)
	for _, n := range []int{1, 3, 6, 63, 64, 65, 128, 130} {
		rr := NewRoundRobin(n)
		ptr := 0
		req := make([]bool, n)
		words := make([]uint64, (n+63)/64)
		for step := 0; step < 3000; step++ {
			density := []float64{0.02, 0.5, 0.95, 0}[step%4]
			for i := range words {
				words[i] = 0
			}
			for i := range req {
				req[i] = rng.Bernoulli(density)
				if req[i] {
					words[i>>6] |= 1 << uint(i&63)
				}
			}
			want := rr.Arbitrate(req)
			if got := PickWords(words, ptr); got != want {
				t.Fatalf("n=%d step %d ptr %d: PickWords = %d, RoundRobin = %d", n, step, ptr, got, want)
			}
			if n <= 64 {
				if got := Pick(words[0], ptr); got != want {
					t.Fatalf("n=%d step %d ptr %d: Pick = %d, RoundRobin = %d", n, step, ptr, got, want)
				}
			}
			if want >= 0 && rng.Bernoulli(0.7) {
				rr.Ack(want)
				ptr = Next(want, n)
				if ptr != rr.ptr {
					t.Fatalf("n=%d step %d: Next = %d, RoundRobin pointer = %d", n, step, ptr, rr.ptr)
				}
			}
		}
	}
}
