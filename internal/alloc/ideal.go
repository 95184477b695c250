package alloc

// Ideal is the paper's optimal switch allocator: every output port with at
// least one requesting input VC transmits a flit each cycle. It is the
// separable input-first allocator on a crossbar with one virtual input per
// VC (k = v): each row then carries a single VC, input arbitration is
// trivial, and the only physical constraint left is the output link
// itself, so per-output round-robin arbitration over all P*v rows alone
// achieves optimal allocation. It is the reference curve of Figures 7
// and 12.
type Ideal struct{ SeparableIF }

// newIdeals returns n views of one pool with lanes lanes.
func newIdeals(cfg Config, n, lanes int) []Ideal {
	p := newIFPool(cfg, n, lanes)
	vs := make([]Ideal, n)
	for i := range vs {
		vs[i] = Ideal{SeparableIF{p, i}}
	}
	return vs
}

// Name implements Allocator.
func (*Ideal) Name() string { return "ideal" }
