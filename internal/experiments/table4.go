package experiments

import (
	"fmt"

	"vix/internal/config"
	"vix/internal/manycore"
	"vix/internal/network"
	"vix/internal/topology"
	"vix/internal/trace"
)

// Table4Row is one multiprogrammed workload's result.
type Table4Row struct {
	Mix     string
	AvgMPKI float64
	// Speedup is the measured weighted speedup of VIX over baseline IF
	// (mean of per-core IPC ratios), Table 4's last column.
	Speedup float64
	// IPCBase and IPCVIX are chip-aggregate IPC under each scheme.
	IPCBase, IPCVIX float64
	// MemLatBase and MemLatVIX are the average memory-transaction
	// latencies (cycles) under each scheme: the mechanism behind the
	// speedup.
	MemLatBase, MemLatVIX float64
	// PaperMPKI and PaperSpeedup are the published values.
	PaperMPKI, PaperSpeedup float64
}

// runMix simulates one Table 4 workload on the 8x8 mesh under the given
// scheme at base's windows and seed, and returns per-core IPC and the
// average memory-transaction latency over the measurement window.
func runMix(mix trace.Mix, s scheme, base config.Experiment) ([]float64, float64, error) {
	topo := topology.NewMesh(8, 8)
	apps, err := mix.Assign(topo.NumNodes)
	if err != nil {
		return nil, 0, err
	}
	sys, err := manycore.New(base.Seed, apps)
	if err != nil {
		return nil, 0, err
	}
	// The one simulation a config.Experiment cannot describe: the
	// manycore system generates the packets, so the saturated load the
	// spec declares to pass Validate is never drawn.
	cfg, err := experiment(base, topo, s, 0, true).Build()
	if err != nil {
		return nil, 0, err
	}
	cfg.Workload = sys
	n, err := network.New(cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("experiments: %s on %s: %w", s.Label, mix.Name, err)
	}
	n.Run(base.Warmup)
	sys.ResetRetired()
	n.Run(base.Measure)
	return sys.IPC(int64(base.Measure)), sys.AvgMemLatency(), nil
}

// Table4 reproduces the application-level study: every mix is run under
// baseline IF and VIX at base's windows and seed, and the weighted
// speedup is reported alongside the mix's average MPKI.
func Table4(base config.Experiment) ([]Table4Row, error) {
	schemes := networkSchemes()
	ifScheme, vixScheme := schemes[0], schemes[3]
	var rows []Table4Row
	for _, mix := range trace.Mixes() {
		ifIPC, baseLat, err := runMix(mix, ifScheme, base)
		if err != nil {
			return nil, err
		}
		vixIPC, vixLat, err := runMix(mix, vixScheme, base)
		if err != nil {
			return nil, err
		}
		var ratioSum, baseSum, vixSum float64
		for i := range ifIPC {
			baseSum += ifIPC[i]
			vixSum += vixIPC[i]
			if ifIPC[i] > 0 {
				ratioSum += vixIPC[i] / ifIPC[i]
			} else {
				ratioSum++
			}
		}
		mpki, err := mix.AvgMPKI()
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table4Row{
			Mix:          mix.Name,
			AvgMPKI:      mpki,
			Speedup:      ratioSum / float64(len(ifIPC)),
			IPCBase:      baseSum,
			IPCVIX:       vixSum,
			MemLatBase:   baseLat,
			MemLatVIX:    vixLat,
			PaperMPKI:    mix.PaperMPKI,
			PaperSpeedup: mix.PaperSpeedup,
		})
	}
	return rows, nil
}
