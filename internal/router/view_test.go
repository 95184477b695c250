package router

import "vix/internal/sim"

// view is the router's segment of each arena slab as a slice, for tests
// to read and plant state by name.
type view struct {
	buf      []Slot
	ovc      []int8
	outPort  []int8
	nonEmpty sim.Bitset
	hasOVC   sim.Bitset
	vaWait   sim.Bitset
	noCredit sim.Bitset
	busy     []uint64
	ready    sim.Bitset
}

func (r *Router) view() view {
	a, slot := r.arena, int(r.slot)
	sg, w := a.seg(slot), a.maskWords
	return view{
		buf:      segment(a.bufs, slot, a.pv*a.cfg.BufDepth),
		ovc:      segment(a.ovc, slot, a.pv),
		outPort:  segment(a.outPort, slot, a.pv),
		nonEmpty: a.masks[sg.nonEmpty() : sg.nonEmpty()+w],
		hasOVC:   a.masks[sg.hasOVC() : sg.hasOVC()+w],
		vaWait:   a.masks[sg.vaWait() : sg.vaWait()+w],
		noCredit: a.masks[sg.noCredit() : sg.noCredit()+w],
		busy:     a.masks[sg.busy() : sg.busy()+a.cfg.Ports],
		ready:    a.masks[sg.ready() : sg.ready()+w],
	}
}

// segment returns router slot's n-entry segment of slab, capped so that
// appending to or reslicing the view cannot reach the next router's.
func segment[T any](slab []T, slot, n int) []T {
	return slab[slot*n : (slot+1)*n : (slot+1)*n]
}
