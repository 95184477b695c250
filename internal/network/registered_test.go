package network

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/bits"
	"sync"
	"testing"

	"vix/internal/alloc"
	"vix/internal/router"
	"vix/internal/topology"
)

// recorder is a registered allocator wrapping a built-in one, the shape
// of bench's traced allocator and of any RegisterAllocator user that
// delegates: it hashes every request and every grant it passes on.
type recorder struct {
	inner alloc.Allocator
	h     hash.Hash64
	buf   [binary.MaxVarintLen64]byte

	calls    int // Allocate calls
	disagree int // calls whose packed form names other requests than the list
}

func (r *recorder) put(v int) { r.h.Write(r.buf[:binary.PutVarint(r.buf[:], int64(v))]) }

func (r *recorder) Name() string { return "recorder" }
func (r *recorder) Reset()       { r.inner.Reset() }

func (r *recorder) Allocate(rs *alloc.RequestSet) []alloc.Grant {
	r.calls++
	// The router fills both forms for a registered allocator: Ready, Out
	// and Age must name exactly the listed requests — an empty call's
	// Ready words are all zero.
	n := 0
	for _, w := range rs.Ready {
		n += bits.OnesCount64(w)
	}
	agree := n == len(rs.Requests)
	for _, q := range rs.Requests {
		ivc := q.Port*rs.Config.VCs + q.VC
		agree = agree && rs.Ready[ivc>>6]>>uint(ivc&63)&1 == 1 && int(rs.Out[ivc]) == q.OutPort && int(rs.Age[ivc]) == q.Age
	}
	if !agree {
		r.disagree++
	}
	r.put(len(rs.Requests))
	for _, q := range rs.Requests {
		r.put(q.Port)
		r.put(q.VC)
		r.put(q.OutPort)
		r.put(q.Age)
	}
	grants := r.inner.Allocate(rs)
	r.put(len(grants))
	for _, g := range grants {
		r.put(listIndex(rs, g.IVC)) // the digests were recorded with grants naming list indices
		r.put(g.OutPort)
		r.put(g.Row)
	}
	return grants
}

// listIndex returns the index in rs's list of input VC ivc's request, or
// -1 if it has none.
func listIndex(rs *alloc.RequestSet, ivc int) int {
	for i, q := range rs.Requests {
		if q.Port*rs.Config.VCs+q.VC == ivc {
			return i
		}
	}
	return -1
}

// recorders holds, per registered kind, the instances its factory built,
// in construction (router) order.
var recorders struct {
	once   sync.Once
	mu     sync.Mutex
	byKind map[alloc.Kind][]*recorder
}

const (
	recordingIF        alloc.Kind = "recording-if"
	recordingWavefront alloc.Kind = "recording-wavefront"
	recordingIFNoSkip  alloc.Kind = "recording-if-noskip"
)

func registerRecorders(t *testing.T) {
	t.Helper()
	recorders.once.Do(func() {
		recorders.byKind = map[alloc.Kind][]*recorder{}
		for _, k := range []struct{ kind, inner alloc.Kind }{
			{recordingIF, alloc.KindSeparableIF},
			{recordingWavefront, alloc.KindWavefront},
			{recordingIFNoSkip, alloc.KindSeparableIF},
		} {
			err := alloc.Register(k.kind, func(cfg alloc.Config) (alloc.Allocator, error) {
				inner, err := alloc.New(k.inner, cfg)
				if err != nil {
					return nil, err
				}
				rec := &recorder{inner: inner, h: fnv.New64a()}
				recorders.mu.Lock()
				recorders.byKind[k.kind] = append(recorders.byKind[k.kind], rec)
				recorders.mu.Unlock()
				return rec, nil
			})
			if err != nil {
				panic(err)
			}
		}
	})
}

// TestRegisteredAllocatorsSeeTheParentsRequests pins what a registered
// allocator wrapping a built-in one is handed: every request (port, VC,
// output, age) of every call and every grant the built-in returns, hashed
// per router and then in router order, against the digests the router
// produced when it built a request list for every allocator. The
// saturated cases cover if at k = 2 and wavefront on the radix-10
// flattened butterfly, the light-load case a mesh whose routers go idle.
// Every call must carry both forms of the same requests, and every
// allocator is called once per router tick: never on the cycles an idle
// router sits out. The light-load digest was re-recorded when those
// cycles stopped being replayed as empty calls (ef4be433053a883a with
// them).
func TestRegisteredAllocatorsSeeTheParentsRequests(t *testing.T) {
	registerRecorders(t)
	cases := []struct {
		name   string
		cfg    func() Config
		cycles int
		want   string
	}{
		{"mesh8x8_if2_sat", func() Config {
			cfg := meshConfig(topology.NewMesh(8, 8), recordingIF, 2, router.PolicyBalanced)
			cfg.InjectionRate, cfg.MaxInjection, cfg.Seed = 0, true, 7
			return cfg
		}, 2000, "68b4d9c80e9c8405"},
		{"fbfly4x4c4_wf_sat", func() Config {
			cfg := meshConfig(topology.NewFBfly(4, 4, 4), recordingWavefront, 1, router.PolicyMaxFree)
			cfg.InjectionRate, cfg.MaxInjection, cfg.Seed = 0, true, 7
			return cfg
		}, 2000, "3da8c218ae1ede92"},
		{"mesh8x8_if2_low_noskip", func() Config {
			cfg := meshConfig(topology.NewMesh(8, 8), recordingIFNoSkip, 2, router.PolicyBalanced)
			cfg.InjectionRate = 0.02
			return cfg
		}, 3000, "e184179f3e218fe5"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			kind := cfg.Router.AllocKind
			recorders.mu.Lock()
			recorders.byKind[kind] = nil
			recorders.mu.Unlock()
			n, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			for c := 0; c < tc.cycles; c++ {
				n.Step()
			}
			recorders.mu.Lock()
			recs := recorders.byKind[kind]
			recorders.mu.Unlock()
			if len(recs) != len(n.routers) {
				t.Fatalf("%d recorders for %d routers", len(recs), len(n.routers))
			}
			h := sha256.New()
			calls, disagree := 0, 0
			for _, r := range recs {
				binary.Write(h, binary.LittleEndian, r.h.Sum64())
				calls += r.calls
				disagree += r.disagree
			}
			if disagree != 0 {
				t.Errorf("%d calls handed a packed form that disagrees with the request list", disagree)
			}
			if int64(calls) != n.RouterTicks() {
				t.Errorf("%d Allocate calls in %d router ticks; want one a tick", calls, n.RouterTicks())
			}
			if got := fmt.Sprintf("%x", h.Sum(nil))[:16]; got != tc.want {
				t.Errorf("digest %s, want %s", got, tc.want)
			}
		})
	}
}
