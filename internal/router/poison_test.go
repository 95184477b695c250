package router

import (
	"fmt"
	"testing"

	"vix/internal/alloc"
	"vix/internal/routerbench"
	"vix/internal/sim"
)

// poisoned enforces the lifetime clause of the Allocate contract at run
// time: the grants an allocator returned are dead at its next Allocate
// or Reset, so before delegating either call the wrapper scribbles over
// the slice it handed out last time. It hands out a copy, never the
// inner allocator's scratch: a bare allocator refills the same backing
// array, so a stale slice there mostly reads as the new grants, while
// here it reads as scribble for good. A consumer that finished with its
// grants within the cycle cannot tell the difference; one that kept the
// slice — in a field, a local, a channel — can.
type poisoned struct {
	alloc.Allocator
	last []alloc.Grant
}

func (p *poisoned) scribble() {
	for i := range p.last {
		p.last[i] = alloc.Grant{IVC: -1 << 30, OutPort: -1 << 30, Row: -1 << 30}
	}
	p.last = nil
}

func (p *poisoned) Allocate(rs *alloc.RequestSet) []alloc.Grant {
	p.scribble()
	p.last = append([]alloc.Grant(nil), p.Allocator.Allocate(rs)...)
	return p.last
}

func (p *poisoned) Reset() {
	p.scribble()
	p.Allocator.Reset()
}

// poisonedKind registers (once) and returns the kind that builds kind's
// allocator inside the poisoning wrapper, so everything that constructs
// its allocator through alloc.New — testRouter, routerbench.New — can be
// run under it unmodified.
func poisonedKind(t *testing.T, kind alloc.Kind) alloc.Kind {
	t.Helper()
	wrapped := "poisoned:" + kind
	if alloc.Known(wrapped) {
		return wrapped
	}
	err := alloc.Register(wrapped, func(cfg alloc.Config) (alloc.Allocator, error) {
		inner, err := alloc.New(kind, cfg)
		if err != nil {
			return nil, err
		}
		return &poisoned{Allocator: inner}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return wrapped
}

// The three grant consumers below each return a transcript of everything
// they did with their grants over a seeded run at the given geometry.

const poisonCycles = 400

// advanceTranscript drives a radix-5 router near saturation — random
// 1–3-flit packets into every input VC with room, downstream credits
// returned the cycle after use — lets it drain, skips 7 idle cycles, loads
// it again, and records what every Router.Advance emitted and freed.
func advanceTranscript(t *testing.T, kind alloc.Kind, k int) string {
	cfg := baseConfig()
	cfg.AllocKind, cfg.VirtualInputs = kind, k
	r := testRouter(t, cfg)
	rng := sim.NewRNG(11)
	out := ""
	clock := int64(0)
	for cycle, pkt := 0, uint64(0); cycle < poisonCycles; cycle, clock = cycle+1, clock+1 {
		if cycle == poisonCycles/2 {
			if r.arena.Busy(int(r.slot)) {
				t.Fatalf("%q: router did not drain in %d unloaded cycles", kind, poisonCycles/4)
			}
			clock += 7
		}
		loaded := cycle < poisonCycles/4 || cycle >= poisonCycles/2
		for port := 0; loaded && port < cfg.Ports; port++ {
			for vc := 0; vc < cfg.VCs; vc++ {
				size := 1 + rng.Intn(3)
				if rng.Bernoulli(0.5) && r.BufferSpace(port, vc) >= size {
					deliver(r, port, vc, rng.Intn(cfg.Ports), NewPacket(pkt, 0, 9, size, 0))
					pkt++
				}
			}
		}
		ems, creds := r.Advance(0, clock)
		out += fmt.Sprintln(ems, creds)
		for _, e := range ems {
			if e.OutPort != 0 { // port 0 is testRouter's one ejection port
				r.DeliverCredit(e.OutPort, int(e.VC))
			}
		}
	}
	return out
}

// benchTranscript records the flits each routerbench Step moved; which
// VCs were granted decides which refill (and draw from the bench's RNG),
// so a consumer acting on wrong grants diverges within a few cycles.
func benchTranscript(t *testing.T, kind alloc.Kind, k int) string {
	b, err := routerbench.New(routerbench.Config{
		Radix: 5, VCs: 6, VirtualInputs: k, AllocKind: kind, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := ""
	for cycle := 0; cycle < poisonCycles; cycle++ {
		out += fmt.Sprintln(b.Step())
	}
	return out
}

// retainingTranscript is the negative control: a consumer that breaks
// the contract by keeping each cycle's grants slice and reading it only
// after the next Allocate.
func retainingTranscript(t *testing.T, kind alloc.Kind, k int) string {
	cfg := alloc.Config{Ports: 5, VCs: 6, VirtualInputs: k}
	a, err := alloc.New(kind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(11)
	rs := alloc.RequestSet{Config: cfg}
	var kept []alloc.Grant
	out := ""
	for cycle := 0; cycle < poisonCycles; cycle++ {
		rs.Requests = rs.Requests[:0]
		for port := 0; port < cfg.Ports; port++ {
			for vc := 0; vc < cfg.VCs; vc++ {
				if rng.Bernoulli(0.6) {
					rs.Requests = append(rs.Requests, alloc.Request{Port: port, VC: vc, OutPort: rng.Intn(cfg.Ports)})
				}
			}
		}
		grants := a.Allocate(rs.Pack())
		out += fmt.Sprintln(kept)
		kept = grants
	}
	return out
}

// TestGrantsAreConsumedWithinTheCycle holds the two production grant
// consumers — Router.Advance and routerbench's Step — to the Allocate
// lifetime contract for every registered kind: run under the poisoning
// wrapper they must do exactly what they do on the bare allocator. The
// retaining consumer must not, or the poison has no teeth.
func TestGrantsAreConsumedWithinTheCycle(t *testing.T) {
	for _, kind := range alloc.Kinds() {
		k := 2
		switch kind {
		case alloc.KindIdeal:
			k = 6
		case alloc.KindSparoflo:
			k = 1
		}
		for _, c := range []struct {
			name       string
			transcript func(*testing.T, alloc.Kind, int) string
			retains    bool
		}{
			{"Router.Advance", advanceTranscript, false},
			{"routerbench.Bench.Step", benchTranscript, false},
			{"retaining control", retainingTranscript, true},
		} {
			bare, wrapped := c.transcript(t, kind, k), c.transcript(t, poisonedKind(t, kind), k)
			switch {
			case c.retains && bare == wrapped:
				t.Errorf("%s on %q: poisoning dead grants changed nothing; the wrapper does not bite", c.name, kind)
			case !c.retains && bare != wrapped:
				t.Errorf("%s on %q behaves differently once dead grants are poisoned: it reads an Allocate result after the next Allocate or Reset", c.name, kind)
			}
		}
	}
}
