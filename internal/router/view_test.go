package router

import (
	"vix/internal/alloc"
	"vix/internal/sim"
)

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
	reqs     *alloc.RequestSet
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
		reqs:     &a.sets[slot],
	}
}
