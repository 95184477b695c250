// Package arb implements the arbiter primitive used by NoC switch
// allocators: the programmable-priority round-robin arbiter.
//
// An arbiter separates the combinational decision from the priority-state
// update. Separable allocators in the iSLIP style update an arbiter's
// priority only when its choice results in an actual grant, which is why
// the two steps are distinct: an input arbiter whose winning virtual
// channel subsequently loses output arbitration must keep its pointer so
// the same VC retains priority next cycle.
//
// Pick, PickWords and Next are that decision and update over request
// lines packed into words, and are what every allocator in internal/alloc
// runs on: an arbiter there is a bare pointer, a request vector a word.
// Arbiter and RoundRobin state the same behaviour over a []bool vector —
// the executable specification the tests of both packages hold Pick to.
package arb

import "math/bits"

// Arbiter selects one winner from a set of requestors.
type Arbiter interface {
	// Arbitrate returns the index of the winning requestor given the
	// request vector, or -1 if no requests are asserted. It does not
	// change arbiter state. len(req) must equal Size.
	Arbitrate(req []bool) int
	// Ack informs the arbiter that the given requestor's grant was
	// accepted, updating priority state so the arbiter is fair over time.
	Ack(winner int)
	// Size returns the number of requestors the arbiter serves.
	Size() int
	// Reset restores the initial priority state.
	Reset()
}

// RoundRobin is a rotating-priority arbiter. After a grant is acknowledged
// the requestor immediately after the winner has the highest priority,
// giving each requestor a fair share under persistent contention.
type RoundRobin struct {
	n   int
	ptr int
}

// NewRoundRobin returns a round-robin arbiter over n requestors.
// It panics if n <= 0.
func NewRoundRobin(n int) *RoundRobin {
	if n <= 0 {
		panic("arb: NewRoundRobin with non-positive size")
	}
	return &RoundRobin{n: n}
}

// Size returns the number of requestors.
func (a *RoundRobin) Size() int { return a.n }

// Arbitrate returns the requesting index at or after the priority pointer,
// wrapping around; -1 if req is all false.
func (a *RoundRobin) Arbitrate(req []bool) int {
	if len(req) != a.n {
		panic("arb: request vector size mismatch")
	}
	for idx := a.ptr; idx < a.n; idx++ {
		if req[idx] {
			return idx
		}
	}
	for idx := 0; idx < a.ptr; idx++ {
		if req[idx] {
			return idx
		}
	}
	return -1
}

// Ack moves the priority pointer to the requestor after winner.
func (a *RoundRobin) Ack(winner int) {
	if winner < 0 || winner >= a.n {
		panic("arb: Ack winner out of range")
	}
	a.ptr = winner + 1
	if a.ptr == a.n {
		a.ptr = 0
	}
}

// Reset restores priority to requestor 0.
func (a *RoundRobin) Reset() { a.ptr = 0 }

// Pick is the round-robin decision over one packed request word — the
// bit-vector circuit the paper's arbiters are (Fig. 2): the lowest set bit
// of req at or after the priority pointer, else the lowest set bit; -1 if
// req is zero. It grants exactly what RoundRobin.Arbitrate grants for the
// same request lines and pointer, without the vector to fill and scan.
// The caller owns the pointer (0 <= ptr < 64) and advances it with Next
// when the grant is accepted.
func Pick(req uint64, ptr int) int {
	if at := req >> uint(ptr); at != 0 {
		return ptr + bits.TrailingZeros64(at)
	}
	if req == 0 {
		return -1
	}
	return bits.TrailingZeros64(req)
}

// PickWords is Pick over a request vector spanning several words (bit i
// of the vector is bit i&63 of req[i>>6]); ptr must index into req.
func PickWords(req []uint64, ptr int) int {
	wi := ptr >> 6
	if at := req[wi] >> uint(ptr&63); at != 0 {
		return ptr + bits.TrailingZeros64(at)
	}
	for i := wi + 1; i < len(req); i++ {
		if req[i] != 0 {
			return i<<6 + bits.TrailingZeros64(req[i])
		}
	}
	// Wrap: word wi's bits at or after ptr were just seen clear, so any
	// bit found in it now lies below the pointer.
	for i := 0; i <= wi; i++ {
		if req[i] != 0 {
			return i<<6 + bits.TrailingZeros64(req[i])
		}
	}
	return -1
}

// Next returns the priority pointer after winner's grant is accepted
// over n requestors: the requestor after the winner, wrapping — what
// RoundRobin.Ack stores.
func Next(winner, n int) int {
	if winner+1 == n {
		return 0
	}
	return winner + 1
}
