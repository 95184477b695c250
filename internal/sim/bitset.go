package sim

// Bitset is a packed occupancy-word set over a fixed index space, sized
// at construction, and the only one in the simulator: the allocators'
// scratch remembers dirtied rows, outputs and cells in one, the router's
// per-ivc masks are Bitset views of its arena segment, and the network's
// activity-gated tick keeps one for dirty routers and one for network
// interfaces with queued flits.
//
// Walks iterate set bits in ascending index order — word by word,
// bits.TrailingZeros64 within a word — so replacing a dense 0..n loop
// with a bitset walk visits the same indices in the same order, which is
// what keeps the gated tick byte-identical to the dense one. Callers
// range over the words directly:
//
//	for wi, w := range b {
//		for ; w != 0; w &= w - 1 {
//			i := wi<<6 + bits.TrailingZeros64(w)
//			...
//		}
//	}
//
// Iterating a copied word w is stable under concurrent Clear calls for
// indices already visited; bits set during a walk are observed only if
// they land in a word not yet reached.
type Bitset []uint64

// NewBitset returns an all-clear bitset covering indices [0, n).
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Set marks index i.
func (b Bitset) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Clear unmarks index i.
func (b Bitset) Clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// Has reports whether index i is marked.
func (b Bitset) Has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
