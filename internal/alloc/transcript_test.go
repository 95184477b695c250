package alloc

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"vix/internal/sim"
)

// updateTranscripts rewrites testdata/transcripts.golden from the tree the
// test runs in. The committed file was written by the allocators as they
// stood before they moved onto packed request words (commit 497d866) and
// pins every kind's grants to them, six of which have no dense reference;
// regenerating it from a later tree throws that pin away.
var updateTranscripts = flag.Bool("update", false, "rewrite testdata/transcripts.golden from this tree's allocators")

const (
	transcriptGolden = "testdata/transcripts.golden"
	transcriptCycles = 3000
)

// wordBank names one lane's slice of request words an allocator drains
// as it consumes them, so that it reads all-zero between Allocate calls.
type wordBank struct {
	name  string
	lane  int
	words []uint64
}

// assertDrained fails if a keeps lazily-drained request words (it then
// has a lazyWords method, in packed_test.go) and one of them is non-zero:
// a word left dirty by a load swing is caught at the cycle it happens,
// not cycles later as a wrong grant.
func assertDrained(t *testing.T, a Allocator, where string) {
	t.Helper()
	lw, ok := a.(interface{ lazyWords() []wordBank })
	if !ok {
		return
	}
	for _, m := range lw.lazyWords() {
		for i, w := range m.words {
			if w != 0 {
				t.Fatalf("%s: lane %d's %s[%d] is %#x between calls, want 0", where, m.lane, m.name, i, w)
			}
		}
	}
}

// transcriptRequests refills rs with one cycle of router-shaped requests,
// in both forms: ascending (port, VC), at most one per VC, ages 0-31. The load swings
// through lockstepLoads — saturation, trickle, silence — and the lone
// cycles enumerate every (port, VC) x output as lockstepRequests' do.
func transcriptRequests(rng *sim.RNG, rs *RequestSet, cycle int) {
	cfg := rs.Config
	rs.Requests = rs.Requests[:0]
	load := lockstepLoads[cycle%len(lockstepLoads)]
	if load < 0 {
		i := cycle / len(lockstepLoads)
		ivc := i / cfg.Ports % (cfg.Ports * cfg.VCs)
		rs.Requests = append(rs.Requests, Request{
			Port: ivc / cfg.VCs, VC: ivc % cfg.VCs, OutPort: i % cfg.Ports, Age: rng.Intn(32),
		})
		rs.Pack()
		return
	}
	for port := 0; port < cfg.Ports; port++ {
		for vc := 0; vc < cfg.VCs; vc++ {
			if rng.Bernoulli(load) {
				rs.Requests = append(rs.Requests, Request{
					Port: port, VC: vc, OutPort: rng.Intn(cfg.Ports), Age: rng.Intn(32),
				})
			}
		}
	}
	rs.Pack()
}

// listIndex returns the index in rs's list of input VC ivc's request, or
// -1 if it has none.
func listIndex(rs *RequestSet, ivc int) int {
	for i, r := range rs.Requests {
		if r.Port*rs.Config.VCs+r.VC == ivc {
			return i
		}
	}
	return -1
}

// grantTranscriptHash drives a fresh allocator of the kind through
// transcriptCycles cycles and returns the FNV-1a hash of every grant it
// returned, in order. Empty cycles open an idle span of several cycles,
// alternately made as literal empty Allocate calls and as no call: the
// clock, the calls' Cycle, moves on across it either way.
func grantTranscriptHash(t *testing.T, kind Kind, cfg Config) uint64 {
	t.Helper()
	a := MustNew(kind, cfg)
	rng := sim.NewRNG(2206)
	h := fnv.New64a()
	var buf [binary.MaxVarintLen64]byte
	put := func(v int) { h.Write(buf[:binary.PutVarint(buf[:], int64(v))]) }
	rs := &RequestSet{Config: cfg}
	empty := &RequestSet{Config: cfg}
	spans := 0
	clock := int64(0)
	for cycle := 0; cycle < transcriptCycles; cycle++ {
		where := fmt.Sprintf("%s on %+v cycle %d", kind, cfg, cycle)
		transcriptRequests(rng, rs, cycle)
		if len(rs.Requests) == 0 {
			span := 1 + rng.Intn(4)
			if rng.Bernoulli(0.125) {
				span += cfg.Rows() + cfg.Ports // outlasts the wavefront's diagonal period
			}
			if spans++; spans%2 == 1 {
				for i := range span {
					empty.Cycle = clock + int64(i)
					if g := a.Allocate(empty); len(g) != 0 {
						t.Fatalf("%s: empty request set drew grants %v", where, g)
					}
				}
			}
			clock += int64(span)
			assertDrained(t, a, where)
			continue
		}
		rs.Cycle = clock
		clock++
		grants := a.Allocate(rs)
		if err := Validate(rs, grants); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		assertDrained(t, a, where)
		put(len(grants))
		for _, g := range grants {
			put(listIndex(rs, g.IVC)) // the golden was recorded with grants naming list indices
			put(g.OutPort)
			put(g.Row)
		}
	}
	return h.Sum64()
}

// TestGrantTranscriptsMatchParent replays, for every kind on every
// reference geometry (k forced to VCs for ideal and to 1 for sparoflo,
// the geometries the registry admits), the request stream above and holds
// the hash of the grants to the one the parent commit's allocators
// produced. Any change to who wins, in which order, or to how an arbiter
// pointer moves shows up here as a differing line.
func TestGrantTranscriptsMatchParent(t *testing.T) {
	var b strings.Builder
	for _, kind := range Kinds() {
		for _, cfg := range ReferenceGeometries() {
			switch kind {
			case KindIdeal:
				cfg.VirtualInputs = cfg.VCs
			case KindSparoflo:
				cfg.VirtualInputs = 1
			}
			fmt.Fprintf(&b, "%s ports=%d vcs=%d k=%d partition=%d %016x\n",
				kind, cfg.Ports, cfg.VCs, cfg.VirtualInputs, cfg.Partition, grantTranscriptHash(t, kind, cfg))
		}
	}
	got := b.String()
	if *updateTranscripts {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(transcriptGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(transcriptGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	for i, line := range strings.Split(got, "\n") {
		if i >= len(wantLines) || line != wantLines[i] {
			w := "<none>"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Errorf("line %d:\n got  %s\n want %s", i+1, line, w)
		}
	}
}
