package router

import (
	"fmt"
	"math/bits"
	"slices"

	"vix/internal/topology"
)

// PolicyKind selects the output-VC assignment policy used at VC
// allocation time (Section 2.3 of the paper).
type PolicyKind string

// Output-VC assignment policies.
const (
	// PolicyMaxFree is the baseline: assign the free output VC with the
	// most free flit buffers (credits).
	PolicyMaxFree PolicyKind = "maxfree"
	// PolicyDimension assigns packets to the VC sub-group matching the
	// dimension of the output port they will request at the downstream
	// router, so requests for different output ports tend to arrive on
	// different virtual inputs.
	PolicyDimension PolicyKind = "dimension"
	// PolicyBalanced is PolicyDimension with load balancing: when the
	// preferred sub-group is heavily occupied relative to the other, the
	// packet is steered to the lighter sub-group so every virtual input
	// keeps requests to offer. This is the paper's full Section 2.3
	// policy and the default for VIX configurations.
	PolicyBalanced PolicyKind = "balanced"
)

// policies lists the policies Validate accepts.
var policies = [...]PolicyKind{PolicyMaxFree, PolicyDimension, PolicyBalanced}

// Validate reports whether p names a policy.
func (p PolicyKind) Validate() error {
	if !slices.Contains(policies[:], p) {
		return fmt.Errorf("router: unknown VC policy %q; want one of %v", p, policies)
	}
	return nil
}

// vaContext carries the information a policy may consult when choosing an
// output VC for a packet leaving through outPort.
type vaContext struct {
	// free has bit v set when downstream VC v is unallocated and admitted
	// by the topology's VC range.
	free uint64
	// busy has bit v set when downstream VC v is allocated.
	busy uint64
	// credits[v] is the current credit count of downstream VC v (a view
	// into the router's arena segment); its length is the VC count.
	credits []int8
	// groupMask[g] has the bits of the VCs in sub-group g; its length is
	// the number of sub-groups (the crossbar's virtual input factor k).
	groupMask []uint64
	// nextDim is the dimension class of the output port the packet will
	// request at the downstream router (lookahead), or DimLocal when the
	// downstream hop ejects.
	nextDim topology.Dim
}

// busyIn counts the allocated VCs of sub-group g.
func (ctx *vaContext) busyIn(g int) int {
	return bits.OnesCount64(ctx.busy & ctx.groupMask[g])
}

// vcSpan returns the mask of VCs in [lo, hi), 0 <= lo and hi <= 64.
func vcSpan(lo, hi int) uint64 {
	if lo >= hi {
		return 0
	}
	return (1<<uint(hi) - 1) &^ (1<<uint(lo) - 1)
}

// choose returns the selected downstream VC, or -1 if no free VC exists.
func (p PolicyKind) choose(ctx *vaContext) int {
	switch p {
	case PolicyMaxFree:
		return bestIn(ctx, ctx.free)
	case PolicyDimension:
		g := preferredGroup(ctx)
		if v := bestIn(ctx, ctx.free&ctx.groupMask[g]); v >= 0 {
			return v
		}
		return bestIn(ctx, ctx.free)
	case PolicyBalanced:
		g := preferredGroup(ctx)
		// Load balance: if the preferred sub-group already has strictly
		// more busy VCs than the least-loaded sub-group, steer there so
		// all virtual inputs keep requests.
		preferred := ctx.busyIn(g)
		min, argmin := preferred, g
		for i := range ctx.groupMask {
			if b := ctx.busyIn(i); b < min {
				min, argmin = b, i
			}
		}
		if preferred > min {
			g = argmin
		}
		if v := bestIn(ctx, ctx.free&ctx.groupMask[g]); v >= 0 {
			return v
		}
		return bestIn(ctx, ctx.free)
	default:
		panic(fmt.Sprintf("router: unknown VC policy %q", p))
	}
}

// preferredGroup maps the downstream direction onto a sub-group: X-dim
// continuations to group 0, Y-dim and ejection to the last group. With
// k = 1 everything maps to group 0 and the policy degenerates to maxfree.
func preferredGroup(ctx *vaContext) int {
	if len(ctx.groupMask) == 1 {
		return 0
	}
	switch ctx.nextDim {
	case topology.DimX:
		return 0
	default:
		return len(ctx.groupMask) - 1
	}
}

// bestIn returns the VC of candidate mask m with the most credits, the
// lowest on a tie, or -1 if m is empty. Callers pass ctx.free, or its
// intersection with one sub-group's groupMask.
func bestIn(ctx *vaContext, m uint64) int {
	best, bestCred := -1, int8(-1)
	for ; m != 0; m &= m - 1 {
		if v := bits.TrailingZeros64(m); ctx.credits[v] > bestCred {
			best, bestCred = v, ctx.credits[v]
		}
	}
	return best
}
