package config

import (
	"fmt"
	"slices"
	"strings"

	"vix/internal/alloc"
	"vix/internal/network"
	"vix/internal/router"
	"vix/internal/topology"
	"vix/internal/traffic"
)

// FieldError is one structured validation failure, naming the offending
// field by its JSON path so API clients and CLI users can point the
// message back at their input.
type FieldError struct {
	// Field is the JSON field path, e.g. "injection_rate".
	Field string `json:"field"`
	// Msg explains the constraint the value violates.
	Msg string `json:"msg"`
}

// Error implements error.
func (e FieldError) Error() string { return e.Field + ": " + e.Msg }

// ValidationError aggregates every failed field of a spec, in field
// order, so one round trip reports all problems instead of the first.
// vixd serialises it into 400 responses; the CLIs print it line per
// field.
type ValidationError []FieldError

// Error implements error.
func (e ValidationError) Error() string {
	msgs := make([]string, len(e))
	for i, fe := range e {
		msgs[i] = fe.Error()
	}
	return "config: invalid experiment: " + strings.Join(msgs, "; ")
}

// maxBufferSlots bounds routers × radix × vcs × buf_depth, the flit
// slots a network's input buffers hold: 27 times the 153 600 of a
// saturated 32x32 mesh, whose whole run lives in 13.3 MB of heap, so an
// admitted spec cannot build a network that exhausts memory.
const maxBufferSlots = 1 << 22

// Validate checks the experiment for semantic errors — unknown enum
// values, out-of-range numbers, impossible crossbar geometry — and
// returns a ValidationError naming every offending field by its JSON
// path, or nil. It checks the Resolved spec by asking the package that
// owns each choice (topology, alloc, router, traffic), and states only
// the bounds that need a field name: the windows, the load, negative
// numbers and the network's size. Build validates first, so the two
// cannot disagree; TestValidateAcceptsEverythingBuildAccepts holds that
// a spec Validate accepts runs.
func (e Experiment) Validate() error {
	var errs ValidationError
	bad := func(field, format string, args ...any) {
		errs = append(errs, FieldError{Field: field, Msg: fmt.Sprintf(format, args...)})
	}
	owner := func(field string, err error) { // an owning package's error, "pkg: " cut
		if err != nil {
			_, msg, _ := strings.Cut(err.Error(), ": ")
			bad(field, "%s", msg)
		}
	}
	r := e.Resolved()
	kind := topology.Kind(r.Topology)
	radix, terr := topology.Radix(kind, r.Width, r.Height, r.Conc)
	owner("topology", terr)
	if e.Width < 0 {
		bad("width", "must be non-negative, got %d", e.Width)
	}
	if e.Height < 0 {
		bad("height", "must be non-negative, got %d", e.Height)
	}
	if e.Conc < 0 {
		bad("conc", "must be non-negative, got %d", e.Conc)
	}
	// nodes stays 0 unless the network is one the simulator can hold, so
	// the pattern check below never lays out a grid refused here.
	w, h, conc, vcs, k := r.Width, r.Height, r.Conc, r.VCs, r.VirtualInputs
	nodes := 0
	if terr == nil && w > 0 && h > 0 && conc > 0 {
		// In floating point, which cannot overflow on any JSON integer.
		routers := float64(w) * float64(h)
		switch d := topology.Diameter(kind, w, h); {
		case d > network.MaxHops:
			bad("width", "a %dx%d router grid has diameter %d, more than the hop counter's %d", w, h, d, network.MaxHops)
		case routers*float64(radix)*float64(vcs)*float64(r.BufDepth) > maxBufferSlots:
			bad("width", "a %dx%d grid of radix-%d routers with %d VCs x %d flits has more than %d buffer slots", w, h, radix, vcs, r.BufDepth, maxBufferSlots)
		case routers*float64(conc) < 2:
			bad("width", "a network needs at least 2 nodes to exchange packets, got %dx%d with %d per router", w, h, conc)
		default:
			nodes = w * h * conc
		}
	}
	if e.VCs < 0 {
		bad("vcs", "must be non-negative, got %d", e.VCs)
	}
	if e.BufDepth < 0 {
		bad("buf_depth", "must be non-negative, got %d", e.BufDepth)
	}
	if e.VirtualInputs < 0 {
		bad("virtual_inputs", "must be non-negative, got %d", e.VirtualInputs)
	}
	if r.BufDepth > router.MaxBufDepth {
		bad("buf_depth", "at most %d flits per VC, got %d", router.MaxBufDepth, r.BufDepth)
	}
	if radix > router.MaxPorts {
		bad("conc", "at most %d ports per router, got %d for %s %dx%d with %d terminals per router", router.MaxPorts, radix, kind, w, h, conc)
	}
	if k > 0 && vcs > 0 && k > vcs {
		bad("virtual_inputs", "virtual inputs per port (%d) cannot exceed VCs per port (%d)", k, vcs)
	}
	if vcs > alloc.MaxVCs {
		bad("vcs", "at most %d VCs per port (one arbiter word), got %d", alloc.MaxVCs, vcs)
	}
	owner("vcs", network.CheckTorusVCs(kind, w, h, vcs))
	if allocKind := alloc.Kind(r.Allocator); !alloc.Known(allocKind) {
		bad("allocator", "unknown allocator %q; want one of %v", r.Allocator, alloc.Kinds())
	} else {
		owner("allocator", alloc.CheckGeometry(allocKind, alloc.Config{Ports: radix, VCs: vcs, VirtualInputs: k}))
	}
	owner("policy", router.PolicyKind(r.Policy).Validate())
	_, perr := alloc.ParsePartition(r.Partition)
	owner("partition", perr)

	if !slices.Contains(traffic.Names(), r.Pattern) {
		bad("pattern", "unknown traffic pattern %q; want one of %v", r.Pattern, traffic.Names())
	} else if nodes >= 2 {
		// The pattern must be defined on the node grid Build hands it.
		gw, gh := nodeGrid(nodes)
		_, err := traffic.New(r.Pattern, gw, gh)
		owner("pattern", err)
	}
	// Negated so that NaN, which compares false to everything, is rejected.
	if !(e.InjectionRate >= 0 && e.InjectionRate <= 1) {
		bad("injection_rate", "must be in [0, 1] packets/cycle/node, got %g", e.InjectionRate)
	} else if e.InjectionRate == 0 && !e.MaxInjection {
		bad("injection_rate", "must be positive unless max_injection is set: a network that never injects measures nothing")
	}
	if e.PacketSize < 0 {
		bad("packet_size", "must be non-negative, got %d", e.PacketSize)
	} else if e.PacketSize > network.MaxPacketSize {
		bad("packet_size", "at most %d flits, got %d", network.MaxPacketSize, e.PacketSize)
	}

	if e.Warmup < 0 {
		bad("warmup", "must be non-negative, got %d", e.Warmup)
	}
	if e.Measure < 1 {
		bad("measure", "must be at least 1, got %d: a zero-cycle measurement is a row of zeros", e.Measure)
	}
	if e.HopDelay < 0 {
		bad("hop_delay", "must be non-negative, got %d", e.HopDelay)
	} else if e.HopDelay > network.MaxHopDelay {
		bad("hop_delay", "at most %d cycles, got %d", network.MaxHopDelay, e.HopDelay)
	}

	if len(errs) == 0 {
		return nil
	}
	return errs
}
