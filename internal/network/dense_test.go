package network

import "vix/internal/stats"

// stepDense is the reference cycle the lockstep tests hold Step to: the
// same deliver / generate / inject / phase-A / phase-B / end-of-cycle
// pieces, but every NI generates and injects and every router ticks,
// every cycle, in index order — no activity words, no worklist, no pool.
// It may be mixed with Step: ticking an idle router changes nothing, so
// it does not matter which of its idle cycles were ticked.
// The statistical process draws per NI with the float rng.Bernoulli(rate),
// which holds source's integer-threshold loop to it in every lockstep
// test.
func (n *Network) stepDense() {
	n.deliver()
	if n.ticker != nil {
		n.ticker.Tick(n.cycle)
	}
	statistical := n.cfg.Workload == nil && !n.cfg.MaxInjection
	for i := range n.nis {
		nif := &n.nis[i]
		if !statistical {
			n.generate(nif)
		} else if nif.rng.Bernoulli(n.cfg.InjectionRate) {
			n.enqueueStatistical(nif)
		}
		n.inject(nif)
	}
	for r := range n.routers {
		ems, creds := n.routers[r].Advance(0, n.cycle)
		n.mergeRouter(r, ems, creds)
	}
	n.endCycle()
}

// run advances n the given cycles with Step, or with stepDense.
func (n *Network) run(cycles int, dense bool) {
	step := n.Step
	if dense {
		step = n.stepDense
	}
	for i := 0; i < cycles; i++ {
		step()
	}
}

// warmMeasure runs a warmup, clears statistics, runs a measurement
// window, and returns its snapshot: Warmup + Measure for either stepper.
func (n *Network) warmMeasure(warmup, cycles int, dense bool) stats.Snapshot {
	n.run(warmup, dense)
	n.col.Reset()
	n.run(cycles, dense)
	return n.col.Snapshot()
}

// lockstepWorkers are the Step schedules every lockstep test compares
// against stepDense: fused (1), and pooled with a segment split that does
// (4) and does not (3) divide typical worklists evenly.
var lockstepWorkers = []int{1, 3, 4}
