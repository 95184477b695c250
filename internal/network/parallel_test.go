package network

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"reflect"
	"testing"

	"vix/internal/alloc"
	"vix/internal/router"
	"vix/internal/stats"
	"vix/internal/topology"
)

// ejectLog records every ejected flit's PacketID, Seq, Src, Dst,
// CreateCycle, EjectCycle and Hops into a sha256 of the whole sequence,
// 8 bytes each, little-endian (the layout the arena baseline digests were
// recorded in), and keeps a 64-bit mix of each record to find where two
// sequences part. The lockstep tests compare whole sequences, which pins
// not just counter totals but the exact order every queue append
// happened in.
type ejectLog struct {
	h     hash.Hash
	marks []uint64 // per flit: an FNV-1a-style mix of its seven fields
}

func newEjectLog() *ejectLog { return &ejectLog{h: sha256.New()} }

// record is an OnEject callback.
func (l *ejectLog) record(f *router.Flit) {
	var rec [7 * 8]byte
	mark := uint64(14695981039346656037)
	for i, v := range [...]uint64{f.PacketID, uint64(f.Seq), uint64(f.Src), uint64(f.Dst),
		uint64(f.CreateCycle), uint64(f.EjectCycle), uint64(f.Hops)} {
		binary.LittleEndian.PutUint64(rec[i*8:], v)
		mark = (mark ^ v) * 1099511628211
	}
	l.h.Write(rec[:])
	l.marks = append(l.marks, mark)
}

// count returns the flits recorded.
func (l *ejectLog) count() int { return len(l.marks) }

// digest returns the sha256 of the sequence, in hex.
func (l *ejectLog) digest() string { return fmt.Sprintf("%x", l.h.Sum(nil)) }

// diverge returns the index of the first flit at which l leaves ref — a
// differing record, or the end of the shorter — or -1 if they are equal.
func (l *ejectLog) diverge(ref *ejectLog) int {
	if l.count() == ref.count() && l.digest() == ref.digest() {
		return -1
	}
	i := 0
	for i < min(l.count(), ref.count()) && l.marks[i] == ref.marks[i] {
		i++
	}
	return i
}

// networkState is what a finished run leaves behind besides its ejection
// sequence: the statistics snapshot and the Network-level counters the
// snapshot does not carry.
type networkState struct {
	snap                          stats.Snapshot
	routerTicks, inFlight, queued int64
}

// runRecorded runs a saturated 8x8 VIX mesh for the given cycles with the
// given worker count, recording every ejection, and returns the ejection
// sequence and the final state.
func runRecorded(t *testing.T, kind alloc.Kind, k, workers, cycles int) (*ejectLog, networkState) {
	t.Helper()
	topo := topology.NewMesh(8, 8)
	policy := router.PolicyMaxFree
	if k > 1 {
		policy = router.PolicyBalanced
	}
	cfg := meshConfig(topo, kind, k, policy)
	cfg.InjectionRate = 0
	cfg.MaxInjection = true
	cfg.Seed = 7
	cfg.Workers = workers
	ejected := newEjectLog()
	cfg.OnEject = ejected.record
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.Run(cycles)
	return ejected, networkState{
		snap:        n.Collector().Snapshot(),
		routerTicks: n.RouterTicks(),
		inFlight:    n.InFlight(),
		queued:      n.QueuedAtSources(),
	}
}

// TestParallelTickByteIdenticalAcrossWorkers is the tentpole guarantee:
// a saturated 8x8 VIX mesh produces bit-identical statistics, the exact
// same ejection sequence and the same Network-level counters for
// workers ∈ {1, 2, 8}. Worker count is a wall-clock knob, never a
// physics knob.
//
// With `make race` this test is also the only guard of what phase A of
// the sharded tick writes, so the table covers every alloc.Kinds() entry
// at the geometry the registry admits for it: each Allocate body runs on
// pool goroutines here, and an allocator that shares scratch between
// instances is a reported race. A new kind gets its row by being
// listed in Kinds(). The short rows keep the -race run affordable; the
// two long ones are the original if k=2 and wavefront k=1.
func TestParallelTickByteIdenticalAcrossWorkers(t *testing.T) {
	type row struct {
		kind      alloc.Kind
		k, cycles int
	}
	rows := []row{{alloc.KindWavefront, 1, 2500}}
	for _, kind := range alloc.Kinds() {
		r := row{kind, 2, 600}
		switch kind {
		case alloc.KindSeparableIF:
			r.cycles = 2500
		case alloc.KindIdeal:
			r.k = 6 // meshConfig's VC count: one virtual input per VC
		case alloc.KindSparoflo:
			r.k = 1
		}
		rows = append(rows, r)
	}
	for _, tc := range rows {
		t.Run(fmt.Sprintf("%s_k%d", tc.kind, tc.k), func(t *testing.T) {
			refEjects, ref := runRecorded(t, tc.kind, tc.k, 1, tc.cycles)
			if refEjects.count() == 0 {
				t.Fatal("reference run ejected nothing; workload broken")
			}
			for _, workers := range []int{2, 8} {
				ejects, got := runRecorded(t, tc.kind, tc.k, workers, tc.cycles)
				if !reflect.DeepEqual(got, ref) {
					t.Errorf("workers=%d final state diverged:\n got %+v\nwant %+v", workers, got, ref)
				}
				if i := ejects.diverge(refEjects); i >= 0 {
					t.Errorf("workers=%d ejection sequence diverged at index %d (%d flits ejected, want %d)",
						workers, i, ejects.count(), refEjects.count())
				}
			}
		})
	}
}

// TestParallelTickMoreWorkersThanRouters checks the shard partition
// degrades gracefully when the requested width exceeds the router count.
func TestParallelTickMoreWorkersThanRouters(t *testing.T) {
	topo := topology.NewMesh(2, 2)
	cfg := meshConfig(topo, alloc.KindSeparableIF, 2, router.PolicyBalanced)
	cfg.MaxInjection = true
	cfg.InjectionRate = 0
	cfg.Workers = 64
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if got := n.Workers(); got > topo.NumRouters {
		t.Errorf("effective workers = %d for %d routers", got, topo.NumRouters)
	}
	n.Run(1500)
	if n.Collector().Snapshot().FlitsEjected == 0 {
		t.Error("no traffic delivered under clamped worker count")
	}
}

// TestParallelDeadlockWatchdogTrips mirrors the serial watchdog test with
// the parallel tick enabled: the forward-progress check lives in the
// serial tail of Step and must keep firing (on the stepping goroutine)
// when routers tick on a pool.
func TestParallelDeadlockWatchdogTrips(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	w := &oneAtATime{}
	w.send(0, PacketSpec{Dst: 15, Size: 4})
	cfg := meshConfig(topo, alloc.KindSeparableIF, 1, router.PolicyMaxFree)
	cfg.Workload = w
	cfg.Workers = 2
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.stallLimit = 2 // absurdly tight: pipeline latency alone exceeds it
	defer n.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("watchdog did not trip at threshold 2 with workers=2")
		}
	}()
	n.Run(100)
}

// TestParallelNetworkCloseIdempotent checks Close on serial and parallel
// networks, repeatedly.
func TestParallelNetworkCloseIdempotent(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	for _, workers := range []int{1, 3} {
		cfg := meshConfig(topo, alloc.KindSeparableIF, 2, router.PolicyBalanced)
		cfg.Workers = workers
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.Run(200)
		n.Close()
		n.Close()
	}
}
