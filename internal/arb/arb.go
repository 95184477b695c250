// Package arb implements the arbiter primitives used by NoC switch and
// virtual-channel allocators: programmable-priority round-robin arbiters
// and matrix (least-recently-granted) arbiters.
//
// Arbiters separate the combinational decision (Arbitrate) from the
// priority-state update (Ack). Separable allocators in the iSLIP style
// update an arbiter's priority only when its choice results in an actual
// grant, which is why the two steps are distinct: an input arbiter whose
// winning virtual channel subsequently loses output arbitration must keep
// its pointer so the same VC retains priority next cycle.
//
// Pick, PickWords and Next are the same round-robin decision and update
// over request lines packed into words, for allocators that keep their
// arbiters as bare pointers.
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

// Matrix is a least-recently-granted arbiter. It maintains a triangular
// priority matrix where prio[i][j] means requestor i beats requestor j.
// When a grant is acknowledged the winner's priority drops below everyone
// else's, which yields strong fairness (each requestor is served before
// any other requestor is served twice).
type Matrix struct {
	n    int
	prio [][]bool
}

// NewMatrix returns a matrix arbiter over n requestors. It panics if
// n <= 0.
func NewMatrix(n int) *Matrix {
	m := &Matrix{n: n}
	if n <= 0 {
		panic("arb: NewMatrix with non-positive size")
	}
	m.prio = make([][]bool, n)
	for i := range m.prio {
		m.prio[i] = make([]bool, n)
	}
	m.Reset()
	return m
}

// Size returns the number of requestors.
func (m *Matrix) Size() int { return m.n }

// Reset restores the initial priority order 0 > 1 > ... > n-1.
func (m *Matrix) Reset() {
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			m.prio[i][j] = i < j
		}
	}
}

// Arbitrate returns the requestor that beats all other requestors, or -1
// if req is all false.
func (m *Matrix) Arbitrate(req []bool) int {
	if len(req) != m.n {
		panic("arb: request vector size mismatch")
	}
	for i := 0; i < m.n; i++ {
		if !req[i] {
			continue
		}
		wins := true
		for j := 0; j < m.n; j++ {
			if j != i && req[j] && !m.prio[i][j] {
				wins = false
				break
			}
		}
		if wins {
			return i
		}
	}
	return -1
}

// Ack lowers the winner's priority below all other requestors.
func (m *Matrix) Ack(winner int) {
	if winner < 0 || winner >= m.n {
		panic("arb: Ack winner out of range")
	}
	for j := 0; j < m.n; j++ {
		if j != winner {
			m.prio[winner][j] = false
			m.prio[j][winner] = true
		}
	}
}
