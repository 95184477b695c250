package alloc

// This file implements idle fast-forwarding for every built-in
// allocator. The activity-gated network tick (internal/network) skips
// the router's tick entirely while a router holds no flits, but a dense tick
// is not a pure no-op for every allocator: some advance rotating
// priority state on every Allocate call even when the request set is
// empty. SkipIdle compresses k consecutive empty Allocate calls into
// O(1) state change so a reactivating router can catch its allocator up
// exactly.
//
// What an empty request set touches, per allocator:
//
//   - Round-robin arbiter pointers (the plain pointer arrays arb.Pick
//     reads) move only on an accepted grant, and the request words are
//     all-zero between calls, so every purely arbiter-backed allocator
//     (if, if-age, islip, sparoflo, ideal, ap) is untouched by an idle
//     cycle: SkipIdle is a no-op.
//   - Wavefront rotates its priority diagonal unconditionally at the
//     end of every Allocate: k idle cycles advance prio by k (mod n).
//   - PacketChaining re-records "this cycle's connections" at the end of
//     every Allocate, so the first idle cycle clears prevOut to -1 for
//     all rows; further idle cycles change nothing (its chainPtr pointers
//     move only when a chain is taken, and its inner separable allocator
//     is a no-op as above).
//
// TestSkipIdleMatchesEmptyAllocates pins SkipIdle(k) against k literal
// empty Allocate calls for every registered kind, interleaved with real
// traffic, so a future allocator change that breaks this equivalence
// fails the suite rather than silently breaking gated byte-identity.

// IdleSkipper is an optional Allocator extension consumed by the
// activity-gated tick: SkipIdle(cycles) must leave the allocator in
// exactly the state `cycles` consecutive Allocate calls with an empty
// request set would have. Callers guarantee cycles >= 1.
//
// Custom allocators (Register) need not implement it; the router falls
// back to issuing the empty Allocate calls one by one, which is always
// correct, just not O(1).
type IdleSkipper interface {
	SkipIdle(cycles int)
}

// SkipIdle implements IdleSkipper: an idle cycle drives no arbitration
// and moves no pointer, so it leaves no trace. Ideal and SeparableAge,
// which run on the same state, inherit it.
func (s *SeparableIF) SkipIdle(int) {}

// SkipIdle implements IdleSkipper: all three pointer banks move only on
// accepted grants.
func (s *ISLIP) SkipIdle(int) {}

// SkipIdle implements IdleSkipper: input, output, and port-conflict
// pointers all move only along the grant path.
func (s *Sparoflo) SkipIdle(int) {}

// SkipIdle implements IdleSkipper: the matching search visits only
// offered requests and the VC pointers move only on grants.
func (a *AugmentingPath) SkipIdle(int) {}

// SkipIdle implements IdleSkipper. Allocate rotates the priority
// diagonal once per call whether or not anything was requested, so k
// idle cycles advance it by k.
func (w *Wavefront) SkipIdle(cycles int) {
	prio, n := &w.p.prio[w.i], w.p.diagonals()
	*prio = int16((int(*prio) + cycles%n) % n)
}

// SkipIdle implements IdleSkipper. The first empty Allocate records an
// empty connection set (prevOut all -1) and every subsequent one keeps
// it; chainPtr pointers and the inner separable allocator are untouched
// by idle cycles.
func (c *PacketChaining) SkipIdle(cycles int) {
	disconnect(seg(c.p.prevOut, c.i, c.p.rows))
	in := c.inner()
	in.SkipIdle(cycles)
}
