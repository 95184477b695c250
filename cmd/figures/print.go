package main

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"text/tabwriter"

	"vix/internal/config"
	"vix/internal/experiments"
	"vix/internal/plot"
	"vix/internal/stats"
	"vix/internal/timing"
	"vix/internal/trace"
)

// table prints an aligned table: the tab-separated header, then
// whatever rows writes to the same tabwriter.
func table(w io.Writer, header string, rows func(tw io.Writer)) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, header)
	rows(tw)
	return tw.Flush()
}

// study closes an ablation study's table with the blank line that
// separates it from the next one.
func study(print printer) printer {
	return func(w io.Writer, e *env, pts grid, snaps []stats.Snapshot) error {
		if err := print(w, e, pts, snaps); err != nil {
			return err
		}
		_, err := fmt.Fprintln(w)
		return err
	}
}

// printDelay regenerates Tables 1 and 3 from the 45 nm-calibrated timing
// models: router pipeline stage delays (VA, SA, crossbar) for the three
// topologies with and without VIX, and the delay of the switch
// allocation schemes.
func printDelay(w io.Writer, e *env, _ grid, _ []stats.Snapshot) error {
	fmt.Fprintln(w, "Table 1: router pipeline stage delays (45 nm calibrated model)")
	fmt.Fprintln(w)
	err := table(w, "Design\tRadix\tXbar size\tVA delay\tSA delay\tXbar delay\tXbar slack vs VA", func(tw io.Writer) {
		for _, r := range timing.Table1() {
			fmt.Fprintf(tw, "%s\t%d\t%d x %d\t%.0f ps\t%.0f ps\t%.0f ps\t%.0f ps\n",
				r.Design, r.Radix, r.XbarIn, r.XbarOut, r.VA, r.SA, r.Xbar, r.VA-r.Xbar)
		}
	})
	if err != nil {
		return err
	}

	fmt.Fprintln(w)
	fmt.Fprintln(w, "Table 3: delay of switch allocation schemes (radix-5 mesh, 6 VCs)")
	fmt.Fprintln(w)
	err = table(w, "Scheme\tDelay", func(tw io.Writer) {
		for _, r := range timing.Table3() {
			if r.Feasible {
				fmt.Fprintf(tw, "%s\t%.0f ps\n", r.Scheme, r.Delay)
			} else {
				fmt.Fprintf(tw, "%s\tInfeasible (model estimate %.0f ps)\n", r.Scheme, r.Delay)
			}
		}
	})
	if err != nil {
		return err
	}

	sep := timing.SADelay(5, 6, 1)
	wf := timing.WavefrontDelay(5, 1)
	fmt.Fprintf(w, "\nWavefront is %.0f%% slower than the separable allocator (paper: 39%%).\n", 100*(wf/sep-1))
	fmt.Fprintf(w, "Mesh VIX crossbar uses %.0f%% of the cycle time (paper: within 70%%).\n",
		100*timing.XbarDelay(10, 5)/timing.CycleTime(5, 6))
	if !e.scaling {
		return nil
	}

	fmt.Fprintln(w)
	fmt.Fprintln(w, "High-radix VIX feasibility (Section 2.4 scaling discussion, 6 VCs):")
	err = table(w, "radix\tcycle\txbar PxP\txbar 2PxP\tVIX slack\tfeasible", func(tw io.Writer) {
		for _, r := range timing.RadixScaling([]int{4, 5, 8, 10, 12, 16, 20, 24, 32}, 6) {
			fmt.Fprintf(tw, "%d\t%.0f ps\t%.0f ps\t%.0f ps\t%+.0f ps\t%v\n",
				r.Radix, r.Cycle, r.XbarBase, r.XbarVIX, r.SlackVIX, r.Feasible)
		}
	})
	fmt.Fprintf(w, "\nVIX feasibility frontier: radix %d at 6 VCs per port.\n", timing.VIXFeasibilityFrontier(6))
	return err
}

// printFig7: switch allocation efficiency of a single router in
// isolation, radices 5, 8 and 10, under IF, WF, AP, VIX and ideal
// allocation with every VC injected at maximum rate.
func printFig7(w io.Writer, e *env, _ grid, _ []stats.Snapshot) error {
	rows, err := experiments.Figure7(e.base)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 7: switch allocation efficiency for a single router")
	fmt.Fprintln(w, "(6 VCs/port, single-flit packets, uniform outputs, max injection)")
	fmt.Fprintln(w)
	return table(w, "radix\tscheme\tflits/cycle\tefficiency\tvs IF", func(tw io.Writer) {
		for _, r := range rows {
			fmt.Fprintf(tw, "%d\t%s\t%.3f\t%.1f%%\t%+.1f%%\n",
				r.Radix, r.Scheme, r.FlitsPerCycle, 100*r.Efficiency, 100*(r.GainOverIF-1))
		}
	})
}

// printFig8: average packet latency and accepted throughput versus
// offered load on the 8x8 mesh under IF, WF, AP and VIX, plus a
// saturation point per scheme — a 40-point grid.
func printFig8(w io.Writer, e *env, pts grid, snaps []stats.Snapshot) error {
	fmt.Fprintln(w, "Figure 8: 8x8 mesh, uniform random, 4-flit packets, 6 VCs")
	fmt.Fprintln(w)
	err := table(w, "scheme\toffered (pkts/cyc/node)\tavg latency (cycles)\taccepted (flits/cyc/node)", func(tw io.Writer) {
		for i, g := range pts {
			load := fmt.Sprintf("%.2f", g.Spec.InjectionRate)
			if g.Spec.MaxInjection {
				load = "saturation"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.2f\t%.4f\n", g.Labels[1], load, snaps[i].AvgLatency, snaps[i].ThroughputFlits)
		}
	})
	if err != nil {
		return err
	}

	// One latency and one throughput series per scheme, in first-seen
	// order; saturation points have no offered-load x and feed the
	// headline ratios instead.
	sat := map[string]stats.Snapshot{}
	var lat, thr []plot.Series
	for i, g := range pts {
		scheme, rate, snap := g.Labels[1], g.Spec.InjectionRate, snaps[i]
		if g.Spec.MaxInjection {
			sat[scheme] = snap
			continue
		}
		if n := len(lat); n == 0 || lat[n-1].Label != scheme {
			lat = append(lat, plot.Series{Label: scheme})
			thr = append(thr, plot.Series{Label: scheme})
		}
		l, t := &lat[len(lat)-1], &thr[len(thr)-1]
		l.X, l.Y = append(l.X, rate), append(l.Y, snap.AvgLatency)
		t.X, t.Y = append(t.X, rate), append(t.Y, snap.ThroughputFlits)
	}
	if e.plot {
		fmt.Fprintln(w)
		fmt.Fprint(w, plot.Render("avg latency (cycles) vs offered load (pkts/cyc/node)", lat, 60, 14))
		fmt.Fprintln(w)
		fmt.Fprint(w, plot.Render("accepted throughput (flits/cyc/node) vs offered load", thr, 60, 14))
	}
	fmt.Fprintf(w, "\nVIX over IF at saturation: throughput %+.1f%% (paper +16.2%%), latency %+.1f%% (paper -36%%)\n",
		100*(sat["VIX"].ThroughputFlits/sat["IF"].ThroughputFlits-1),
		100*(sat["VIX"].AvgLatency/sat["IF"].AvgLatency-1))
	fmt.Fprintf(w, "VIX over AP at saturation: throughput %+.1f%% (paper +15.9%%)\n",
		100*(sat["VIX"].ThroughputFlits/sat["AP"].ThroughputFlits-1))
	fmt.Fprintf(w, "AP over IF at saturation:  throughput %+.1f%% (paper +0.3%%)\n",
		100*(sat["AP"].ThroughputFlits/sat["IF"].ThroughputFlits-1))
	return nil
}

// printFig9: max/min per-source throughput of the four schemes on a
// saturated 8x8 mesh. The paper's point: greedy maximum matching (AP)
// is locally optimal but globally unfair; VIX is the fairest studied.
func printFig9(w io.Writer, _ *env, pts grid, snaps []stats.Snapshot) error {
	fmt.Fprintln(w, "Figure 9: fairness on a saturated 8x8 mesh (max/min per-source throughput; 1.0 is perfectly fair)")
	fmt.Fprintln(w)
	err := table(w, "scheme\tmax/min ratio\tthroughput (flits/cyc/node)", func(tw io.Writer) {
		for i, g := range pts {
			fmt.Fprintf(tw, "%s\t%.2f\t%.4f\n", g.Labels[1], snaps[i].FairnessRatio, snaps[i].ThroughputFlits)
		}
	})
	fmt.Fprintln(w, "\nPaper reports: AP 6.4, VIX 1.99.")
	return err
}

// printFig10: packet chaining (SameInput/anyVC) against IF, WF, AP and
// VIX on an 8x8 mesh with single-flit packets at maximum injection —
// the regime where chaining shines, and where VIX still wins.
func printFig10(w io.Writer, _ *env, pts grid, snaps []stats.Snapshot) error {
	fmt.Fprintln(w, "Figure 10: packet chaining comparison (8x8 mesh, single-flit packets, max injection)")
	fmt.Fprintln(w)
	err := table(w, "scheme\tthroughput (flits/cyc/node)\tvs IF", func(tw io.Writer) {
		for i, g := range pts { // IF is the first scheme
			fmt.Fprintf(tw, "%s\t%.4f\t%+.1f%%\n", g.Labels[1], snaps[i].ThroughputFlits, 100*(snaps[i].ThroughputFlits/snaps[0].ThroughputFlits-1))
		}
	})
	fmt.Fprintln(w, "\nPaper reports: PC +9%, VIX +16% over IF.")
	return err
}

// printFig11: network energy per bit for the baseline and VIX network,
// broken down into buffer, switch, link, clock and leakage. Activity
// factors come from the cycle-accurate simulation, per-component
// energies from the 45 nm calibration in internal/energy.
func printFig11(w io.Writer, e *env, pts grid, snaps []stats.Snapshot) error {
	bs, err := experiments.Energy(e.topo, pts, snaps)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 11: network energy per bit (%s @ %g packets/cycle/node)\n", e.topo.Name, e.rate)
	fmt.Fprintln(w)
	err = table(w, "scheme\tbuffer\tswitch\tlink\tclock\tleakage\ttotal (pJ/bit)", func(tw io.Writer) {
		for i, b := range bs {
			fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\n",
				pts[i].Labels[2], b.Buffer, b.Switch, b.Link, b.Clock, b.Leakage, b.Total)
		}
	})
	fmt.Fprintf(w, "\nVIX total energy per bit: %+.1f%% over baseline (paper: +4%%).\n", 100*(bs[1].Total/bs[0].Total-1))
	return err
}

// printFig12: saturation throughput for no VIX (k=1), the practical 1:2
// VIX (k=2) and ideal VIX (k=v) on mesh, flattened butterfly and
// concentrated mesh with 4 and 6 VCs per port, plus the Section 4.6
// buffer-reduction result (4 VCs with VIX versus 6 VCs without).
func printFig12(w io.Writer, _ *env, pts grid, snaps []stats.Snapshot) error {
	fmt.Fprintln(w, "Figure 12: impact of increasing virtual inputs (saturation throughput, flits/cycle/node)")
	fmt.Fprintln(w)
	var vix4, no6 float64
	err := table(w, "topology\tVCs\tconfig\tthroughput\tvs no VIX", func(tw io.Writer) {
		base := map[string]float64{}
		for i, g := range pts {
			// Labels are {"fig12", topology, VCs, configuration}.
			topo, vcs, cfg, thr := g.Labels[1], g.Labels[2], g.Labels[3], snaps[i].ThroughputFlits
			if cfg == "no VIX" {
				base[topo+vcs] = thr
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%+.1f%%\n", topo, vcs, cfg, thr, 100*(thr/base[topo+vcs]-1))
			switch strings.Join(g.Labels[1:], "/") {
			case "mesh8x8/4/1:2 VIX":
				vix4 = thr
			case "mesh8x8/6/no VIX":
				no6 = thr
			}
		}
	})
	fmt.Fprintf(w, "\nBuffer reduction: mesh 4 VCs + VIX vs 6 VCs baseline: %+.1f%% throughput with 33%% fewer buffers (paper: +10%%).\n",
		100*(vix4/no6-1))
	return err
}

// printTable4: the eight multiprogrammed workloads on the trace-driven
// 64-core system — each mix's average MPKI and the weighted speedup of
// VIX over the baseline separable allocator. With -list, the benchmark
// catalog the mixes draw from instead.
func printTable4(w io.Writer, e *env, _ grid, _ []stats.Snapshot) error {
	if e.list {
		var apps []trace.App
		for _, name := range trace.Names() {
			a, err := trace.ByName(name)
			if err != nil {
				return err
			}
			apps = append(apps, a)
		}
		return table(w, "benchmark\tL1 MPKI\tL2 MPKI\tcombined", func(tw io.Writer) {
			for _, a := range apps {
				fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.2f\n", a.Name, a.L1MPKI, a.L2MPKI, a.MPKI())
			}
		})
	}
	rows, err := experiments.Table4(e.base)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 4: application-level performance (64-core trace-driven system, 8x8 mesh)")
	fmt.Fprintln(w)
	var sum float64
	err = table(w, "mix\tavg MPKI\tpaper MPKI\tchip IPC (IF)\tchip IPC (VIX)\tmem lat (IF)\tmem lat (VIX)\tspeedup\tpaper speedup", func(tw io.Writer) {
		for _, r := range rows {
			fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.3f\t%.2f\n",
				r.Mix, r.AvgMPKI, r.PaperMPKI, r.IPCBase, r.IPCVIX, r.MemLatBase, r.MemLatVIX, r.Speedup, r.PaperSpeedup)
			sum += r.Speedup
		}
	})
	fmt.Fprintf(w, "\nAverage speedup: %.3f (paper: 1.05 average, 1.07 maximum).\n", sum/float64(len(rows)))
	return err
}

// The six ablation studies complement the paper's headline experiments;
// each is a harness grid.

// printPolicies: VC-assignment policy (Section 2.3) under adversarial
// traffic.
func printPolicies(w io.Writer, _ *env, pts grid, snaps []stats.Snapshot) error {
	fmt.Fprintln(w, "VC-assignment policy (Section 2.3) on a saturated 8x8 VIX mesh:")
	return table(w, "pattern\tpolicy\tthroughput (flits/cyc/node)", func(tw io.Writer) {
		for i, g := range pts {
			fmt.Fprintf(tw, "%s\t%s\t%.4f\n", g.Spec.Pattern, g.Spec.Policy, snaps[i].ThroughputFlits)
		}
	})
}

func printPartition(w io.Writer, _ *env, pts grid, snaps []stats.Snapshot) error {
	fmt.Fprintln(w, "VC-to-sub-group partition on saturated VIX networks:")
	return table(w, "topology\tpartition\tthroughput", func(tw io.Writer) {
		for i, g := range pts {
			fmt.Fprintf(tw, "%s\t%s\t%.4f\n", g.Labels[2], g.Spec.Resolved().Partition, snaps[i].ThroughputFlits)
		}
	})
}

// printProbed prints a probe-and-saturate study: one row per pair of
// points, the variant column from the first, latency at the probe rate
// from the first and throughput at saturation from the second.
func printProbed(w io.Writer, title, header string, pts grid, snaps []stats.Snapshot, variant func(config.Experiment) string) error {
	fmt.Fprintln(w, title)
	return table(w, header, func(tw io.Writer) {
		for i := 0; i < len(pts); i += 2 {
			fmt.Fprintf(tw, "%s\t%s\t%.2f\t%.4f\n", pts[i].Labels[2], variant(pts[i].Spec), snaps[i].AvgLatency, snaps[i+1].ThroughputFlits)
		}
	})
}

func printPipeline(w io.Writer, _ *env, pts grid, snaps []stats.Snapshot) error {
	return printProbed(w, "Pipeline depth (Figure 6a vs 6b), 8x8 mesh:", "scheme\thop delay\tlatency @0.05\tsaturation throughput",
		pts, snaps, func(e config.Experiment) string { return strconv.Itoa(e.HopDelay) })
}

func printSpeculation(w io.Writer, _ *env, pts grid, snaps []stats.Snapshot) error {
	return printProbed(w, "Speculative vs non-speculative switch allocation, 8x8 mesh:", "scheme\tmode\tlatency @0.05\tsaturation throughput",
		pts, snaps, func(e config.Experiment) string {
			if e.NonSpeculative {
				return "non-speculative"
			}
			return "speculative"
		})
}

func printKSweep(w io.Writer, _ *env, pts grid, snaps []stats.Snapshot) error {
	fmt.Fprintln(w, "Virtual-input sweep (8x8 mesh, 6 VCs, saturation):")
	return table(w, "k\tthroughput\tvs k=1", func(tw io.Writer) {
		for i, g := range pts {
			thr := snaps[i].ThroughputFlits
			fmt.Fprintf(tw, "%d\t%.4f\t%+.1f%%\n", g.Spec.VirtualInputs, thr, 100*(thr/snaps[0].ThroughputFlits-1))
		}
	})
}

// printAllocators: the extended allocator set, including iSLIP and
// SPAROFLO from the paper's citations and related work; IF is the first.
func printAllocators(w io.Writer, _ *env, pts grid, snaps []stats.Snapshot) error {
	fmt.Fprintln(w, "Extended allocator set (8x8 mesh, saturation):")
	return table(w, "scheme\tthroughput\tvs IF", func(tw io.Writer) {
		for i, g := range pts {
			thr := snaps[i].ThroughputFlits
			fmt.Fprintf(tw, "%s\t%.4f\t%+.1f%%\n", g.Labels[2], thr, 100*(thr/snaps[0].ThroughputFlits-1))
		}
	})
}
