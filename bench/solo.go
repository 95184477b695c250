package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"vix/internal/alloc"
	"vix/internal/harness"
	"vix/internal/network"
	"vix/internal/router"
	"vix/internal/sim"
	"vix/internal/store"
	"vix/internal/topology"
	"vix/internal/traffic"
)

// Solo probes time one layer on its own, outside any network or server,
// by calling its public functions in a loop. They give the cost of calls
// too short to clock one by one inside a run.

// soloBernoulliNS is the cost of one injection draw at the workload's
// rate (MaxInjection workloads draw at 0.5: they never call it).
func soloBernoulliNS(seed uint64, rate float64, div int) float64 {
	if rate == 0 {
		rate = 0.5
	}
	n := 4_000_000 / div
	rng := sim.NewRNG(seed)
	hits := 0
	start := time.Now()
	for i := 0; i < n; i++ {
		if rng.Bernoulli(rate) {
			hits++
		}
	}
	d := time.Since(start)
	sink(hits)
	return float64(d) / float64(n)
}

// soloDestNS is the cost of one uniform destination draw.
func soloDestNS(seed uint64, nodes, div int) float64 {
	n := 4_000_000 / div
	rng := sim.NewRNG(seed)
	pat := traffic.NewUniform(nodes)
	sum := 0
	start := time.Now()
	for i := 0; i < n; i++ {
		sum += pat.Dest(i%nodes, rng)
	}
	d := time.Since(start)
	sink(sum)
	return float64(d) / float64(n)
}

var sunk int

// sink keeps a loop's result alive so the compiler keeps the loop.
func sink(v int) { sunk += v }

// soloRouter drives one real router of the given geometry at saturation:
// every input VC is topped up each cycle with the next flit of a 4-flit
// packet bound for a random other port, every emission is freed and its
// credit returned at once. Only Tick is clocked. It returns ns per Tick
// and flits moved per Tick (exact for a seed).
func soloRouter(cfg router.Config, seed uint64, div int) (tickNS, flitsPerTick float64) {
	ports := make([]router.PortInfo, cfg.Ports)
	for p := range ports {
		dim := topology.DimX
		if p >= cfg.Ports/2 {
			dim = topology.DimY
		}
		ports[p] = router.PortInfo{Kind: topology.Link, Dim: dim}
	}
	a, err := alloc.New(cfg.AllocKind, cfg.Alloc())
	if err != nil {
		panic("vixbench: " + err.Error())
	}
	nextDim := func(outPort, dst int) topology.Dim { return ports[dst%cfg.Ports].Dim }
	rt := router.New(0, cfg, ports, a, nextDim, nil, nil)
	flits := rt.Flits()
	rng := sim.NewRNG(seed)

	type stream struct{ seq, route, dst int }
	streams := make([]stream, cfg.Ports*cfg.VCs)
	feed := func() {
		for port := 0; port < cfg.Ports; port++ {
			for vc := 0; vc < cfg.VCs; vc++ {
				if rt.BufferSpace(port, vc) == 0 {
					continue
				}
				st := &streams[port*cfg.VCs+vc]
				if st.seq == 0 {
					st.route = rng.Intn(cfg.Ports - 1)
					if st.route >= port {
						st.route++
					}
					st.dst = rng.Intn(1 << 16)
				}
				id := flits.Alloc()
				f := flits.At(id)
				*f = router.Flit{
					Type: router.PacketFlitType(st.seq, benchPacketSize), Dst: st.dst, Seq: st.seq, PacketSize: benchPacketSize, Route: st.route,
				}
				rt.DeliverFlit(port, vc, id)
				st.seq = (st.seq + 1) % benchPacketSize
			}
		}
	}
	run := func(ticks int) (ns, moved int64) {
		for i := 0; i < ticks; i++ {
			feed()
			start := time.Now()
			ems, _, _ := rt.Tick()
			ns += int64(time.Since(start))
			for _, e := range ems {
				rt.DeliverCredit(e.OutPort, flits.At(e.Flit).VC)
				flits.Free(e.Flit)
			}
			moved += int64(len(ems))
		}
		return ns, moved
	}
	run(2000 / div)
	ticks := 200_000 / div
	ns, moved := run(ticks)
	return max(float64(ns)/float64(ticks)-clockNS(), 0), float64(moved) / float64(ticks)
}

// soloIdleStepNS is the cost of Network.Step on a drained network of the
// workload's size: the per-node injection draw, empty wheels and an empty
// worklist. network.Config rejects a zero rate, so the rate is one packet
// per 10^12 node-cycles.
func soloIdleStepNS(s simSpec, seed uint64, div int) (float64, error) {
	idle := s
	idle.rate = 1e-12
	n, err := network.New(idle.build(seed, passOpts{workers: 1}, nil, nil))
	if err != nil {
		return 0, err
	}
	defer n.Close()
	n.Run(100)
	cycles := max(2_000_000/s.topology().NumNodes/div, 100)
	start := time.Now()
	n.Run(cycles)
	return float64(time.Since(start)) / float64(cycles), nil
}

// storedValue is a stored result the size of a vixd case's.
var storedValue = json.RawMessage(`{"avg_latency":31.337,"p50_latency":29,"p99_latency":71,"max_latency":113,"avg_hops":5.25,"throughput_flits":0.1999,"throughput_packets":0.04998,"fairness":"1.214","packets_injected":9597,"packets_ejected":9596}`)

// serviceLayers times the layers between a vixd request and the
// kernel with direct calls: building a case spec, one stored job through
// harness.Run, a store hit and a store append (file-backed, in a
// directory under the benchmark's out/ that is removed afterwards).
func serviceLayers(seed uint64, r *report, o runOpts) (err error) {
	specs := caseGrid(seed, 0, 100, 100)
	reps := max(200/o.div, 2)
	start := time.Now()
	for i := 0; i < reps; i++ {
		for _, e := range specs {
			if err := e.Validate(); err != nil {
				return err
			}
			if _, err := e.Build(); err != nil {
				return err
			}
		}
	}
	r.Metrics["config.build_us"] = exact(float64(time.Since(start))/1e3/float64(reps*len(specs)), "us")

	dir, err := os.MkdirTemp(o.outDir, "solo-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(filepath.Join(dir, "store.jsonl"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}()

	n := max(2000/o.div, 10)
	start = time.Now()
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%024x", i)
		if err := st.Put(store.Entry{ID: id, Name: "vixd/if:2/0.05", Value: storedValue, Telemetry: store.Telemetry{WallNanos: 1, Cycles: 4000}}); err != nil {
			return err
		}
	}
	r.Metrics["store.put_us"] = exact(float64(time.Since(start))/1e3/float64(n), "us")

	hits := max(200_000/o.div, 10)
	miss := func() (store.Entry, error) { return store.Entry{}, fmt.Errorf("vixbench: stored entry missing") }
	ctx := context.Background()
	start = time.Now()
	for i := 0; i < hits; i++ {
		if _, _, err := st.Do(ctx, fmt.Sprintf("%024x", i%n), miss); err != nil {
			return err
		}
	}
	r.Metrics["store.do_hit_us"] = exact(float64(time.Since(start))/1e3/float64(hits), "us")

	// One job, already stored: harness.Run hashes it, finds it, returns.
	job := harness.Job{Name: "vixbench/stored", Spec: specs[0], Run: func(context.Context) (any, error) { return 0, nil }}
	opt := harness.Options{Parallel: 1, Store: st}
	if _, err := harness.Run(ctx, []harness.Job{job}, opt); err != nil {
		return err
	}
	runs := max(20_000/o.div, 10)
	start = time.Now()
	for i := 0; i < runs; i++ {
		res, err := harness.Run(ctx, []harness.Job{job}, opt)
		if err != nil {
			return err
		}
		if !res[0].Cached {
			return fmt.Errorf("vixbench: stored job was run again")
		}
	}
	r.Metrics["harness.run_overhead_us"] = exact(float64(time.Since(start))/1e3/float64(runs), "us")
	return nil
}
