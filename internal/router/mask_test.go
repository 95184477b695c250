package router

import (
	"testing"

	"vix/internal/alloc"
)

// maskCase is one geometry for the vaWait/noCredit tests: k virtual
// inputs over VCs output VCs, and the VC range a head to dst maskDst may
// take (the full range when lo == 0 and hi == VCs).
type maskCase struct {
	name   string
	cfg    Config
	lo, hi int
}

const maskDst = 50 // the destination the restricted range applies to

func maskCases() []maskCase {
	k1 := Config{Ports: 5, VCs: 2, VirtualInputs: 1, BufDepth: 4,
		AllocKind: alloc.KindSeparableIF, Policy: PolicyMaxFree}
	k2 := Config{Ports: 5, VCs: 4, VirtualInputs: 2, BufDepth: 4,
		AllocKind: alloc.KindSeparableIF, Policy: PolicyBalanced}
	return []maskCase{
		{name: "k1", cfg: k1, lo: 0, hi: 2},
		{name: "k2", cfg: k2, lo: 0, hi: 4},
		{name: "k2_range", cfg: k2, lo: 2, hi: 4},
	}
}

// maskRouter builds the case's router with a VC range that admits
// [lo, hi) to maskDst and every VC to any other destination, and counts
// the range lookups for maskDst: each is one VC-allocation visit of a
// head bound there. Its tick recounts the masks after every Advance
// without counting Occupancy's own lookups.
func (mc maskCase) router(t *testing.T) (r *Router, visits *int, tick func() []Emission) {
	t.Helper()
	visits = new(int)
	r = rangedTestRouter(t, mc.cfg, func(_, dst int) (int, int) {
		if dst != maskDst {
			return 0, mc.cfg.VCs
		}
		*visits++
		return mc.lo, mc.hi
	})
	tick = func() []Emission {
		t.Helper()
		ems, _, _ := r.Tick()
		n := *visits
		r.Occupancy()
		*visits = n
		return ems
	}
	return r, visits, tick
}

// A head whose admitted VCs at its output are all held parks in vaWait on
// its first failed try and is not visited again until a tail frees a VC
// at that output; it then wins the freed VC in the very next Advance. On
// a restricted range a tail freeing an inadmissible VC wakes it too: it
// fails once more and parks again, as its retry would have.
func TestVAWaitParksAHeadUntilATailFreesAVC(t *testing.T) {
	for _, mc := range maskCases() {
		t.Run(mc.name, func(t *testing.T) {
			r, visits, tick := mc.router(t)
			const out = 2
			vcs := mc.cfg.VCs
			// One holder per output VC on input port 1, each sending only
			// its head, so it keeps its VC until its tail is delivered.
			holders := make([][]*Flit, vcs)
			for v := range holders {
				holders[v] = NewPacket(uint64(v), 0, 10+v, 3, 0)
				deliver(r, 1, v, out, holders[v][:1])
			}
			waiter := 3 * vcs // input port 3, VC 0: visited after the holders
			deliver(r, 3, 0, out, NewPacket(99, 0, maskDst, 2, 0)[:1])
			for i := 0; i < vcs; i++ {
				tick()
			}
			if r.view().busy[out] != vcSpan(0, vcs) {
				t.Fatalf("holders hold %b at output %d, want every VC", r.view().busy[out], out)
			}
			if !r.view().vaWait.Has(waiter) || int(r.view().outPort[waiter]) != out || *visits != 1 {
				t.Fatalf("waiter: vaWait %v, outPort %d, %d visits; want parked on %d after one visit",
					r.view().vaWait.Has(waiter), r.view().outPort[waiter], *visits, out)
			}

			// release sends holder v's body and tail, and returns the VC
			// the tail freed. The parked waiter is not visited meanwhile,
			// and the tick that sends the tail wakes it.
			release := func(v int) int {
				t.Helper()
				vc, before := int(r.view().ovc[1*vcs+v]), *visits
				deliver(r, 1, v, out, holders[v][1:])
				tick()
				if !r.view().vaWait.Has(waiter) {
					t.Fatalf("waiter woke before the tail left")
				}
				tick()
				if r.view().busy[out]&(1<<uint(vc)) != 0 || r.view().vaWait.Has(waiter) {
					t.Fatalf("tail left VC %d busy (%b) or the waiter parked", vc, r.view().busy[out])
				}
				if *visits != before {
					t.Fatalf("parked waiter visited %d times while every VC was held", *visits-before)
				}
				return vc
			}
			holderOf := func(vc int) int {
				for v := 0; v < vcs; v++ {
					if int(r.view().ovc[1*vcs+v]) == vc {
						return v
					}
				}
				t.Fatalf("no holder of VC %d", vc)
				return -1
			}
			if mc.lo > 0 {
				release(holderOf(0))
				tick()
				if !r.view().vaWait.Has(waiter) || r.view().ovc[waiter] >= 0 || *visits != 2 {
					t.Fatalf("after an inadmissible VC freed: vaWait %v, ovc %d, %d visits; want parked again after one more visit",
						r.view().vaWait.Has(waiter), r.view().ovc[waiter], *visits)
				}
			}
			freed := release(holderOf(mc.lo))
			if tick(); int(r.view().ovc[waiter]) != freed {
				t.Fatalf("waiter holds VC %d in the Advance after VC %d freed", r.view().ovc[waiter], freed)
			}
		})
	}
}

// A VC whose downstream credits run out leaves the switch-allocation
// request set (noCredit), stays out while the count is zero, and is back
// in the very next Advance after DeliverCredit returns a credit.
func TestNoCreditLeavesTheRequestSetUntilACreditReturns(t *testing.T) {
	for _, mc := range maskCases() {
		t.Run(mc.name, func(t *testing.T) {
			mc.cfg.BufDepth = 2 // two credits run out in two sends
			cfg := mc.cfg
			r, _, tick := mc.router(t)
			const in, out = 1, 2
			ivc := in * cfg.VCs
			pkt := NewPacket(1, 0, maskDst, 4, 0)
			deliver(r, in, 0, out, pkt[:2])
			tick()
			vc := int(r.view().ovc[ivc])
			if vc < mc.lo || vc >= mc.hi {
				t.Fatalf("head took VC %d outside [%d, %d)", vc, mc.lo, mc.hi)
			}
			deliver(r, in, 0, out, pkt[2:3])
			if ems := tick(); len(ems) != 1 || r.Credits(out, vc) != 0 || !r.view().noCredit.Has(ivc) {
				t.Fatalf("second flit: %d emissions, %d credits, noCredit %v; want the last credit spent and the VC parked",
					len(ems), r.Credits(out, vc), r.view().noCredit.Has(ivc))
			}
			deliver(r, in, 0, out, pkt[3:])
			for i := 0; i < 3; i++ {
				if ems := tick(); len(ems) != 0 || r.view().ready[ivc>>6] != 0 {
					t.Fatalf("zero-credit VC: %d emissions from requests %#x, want none", len(ems), r.view().ready[ivc>>6])
				}
			}
			r.DeliverCredit(out, vc)
			if r.view().noCredit.Has(ivc) {
				t.Fatal("a returned credit left the VC parked")
			}
			if ems := tick(); len(ems) != 1 || !r.view().noCredit.Has(ivc) {
				t.Fatalf("after the credit: %d emissions, noCredit %v; want one flit sent and the VC parked again", len(ems), r.view().noCredit.Has(ivc))
			}
			r.DeliverCredit(out, vc)
			if ems := tick(); len(ems) != 1 || !ems[0].Type.IsTail() || r.view().noCredit.Has(ivc) || r.view().hasOVC.Has(ivc) {
				t.Fatalf("tail: %d emissions, noCredit %v, hasOVC %v; want the tail sent and the VC released",
					len(ems), r.view().noCredit.Has(ivc), r.view().hasOVC.Has(ivc))
			}
		})
	}
}
