package config

import (
	"fmt"
	"math"
	"strings"

	"vix/internal/alloc"
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

// Validate checks the experiment for semantic errors — unknown enum
// values, out-of-range numbers, impossible crossbar geometry — and
// returns a ValidationError naming every offending field by its JSON
// path, or nil. Zero values are legal everywhere a default exists (see
// Experiment), so Validate accepts exactly the specs Run can simulate;
// callers that reject a spec on Validate's word never hand the
// simulator a config it would refuse (or, worse, misread).
func (e Experiment) Validate() error {
	var errs ValidationError
	bad := func(field, format string, args ...any) {
		errs = append(errs, FieldError{Field: field, Msg: fmt.Sprintf(format, args...)})
	}

	switch e.Topology {
	case "", "mesh", "torus", "cmesh", "fbfly":
	default:
		bad("topology", "unknown topology %q; want mesh, torus, cmesh, or fbfly", e.Topology)
	}
	if e.Width < 0 {
		bad("width", "must be non-negative, got %d", e.Width)
	}
	if e.Height < 0 {
		bad("height", "must be non-negative, got %d", e.Height)
	}
	if e.Conc < 0 {
		bad("conc", "must be non-negative, got %d", e.Conc)
	}
	// Effective geometry, after the documented defaults; nodes stays 0
	// when a dimension is negative, which is reported above.
	w, h, conc := e.dims()
	nodes := 0
	if w > 0 && h > 0 && conc > 0 {
		nodes = w * h * conc
		if nodes < 2 {
			bad("width", "a network needs at least 2 nodes to exchange packets, got %dx%d with %d per router", w, h, conc)
		}
		// Buffer slots count hops in an int16 (network.Config.Validate).
		if d := topology.Diameter(topology.Kind(e.Topology), w, h); d > math.MaxInt16 {
			bad("width", "a %dx%d router grid has diameter %d, more than the hop counter's %d", w, h, d, math.MaxInt16)
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
	vcs, depth, k := e.crossbar()
	// The router keeps ring counters, credits and port numbers in int8
	// fields (router.Config.Validate).
	if depth > math.MaxInt8 {
		bad("buf_depth", "at most %d flits per VC, got %d", math.MaxInt8, depth)
	}
	radix := 5
	switch e.Topology {
	case "cmesh":
		radix = conc + 4
	case "fbfly":
		radix = conc + w - 1 + h - 1
	}
	if radix > math.MaxInt8 {
		bad("conc", "at most %d ports per router, got %d for %s %dx%d with %d terminals per router", math.MaxInt8, radix, e.Topology, w, h, conc)
	}
	if k > 0 && vcs > 0 && k > vcs {
		bad("virtual_inputs", "virtual inputs per port (%d) cannot exceed VCs per port (%d)", k, vcs)
	}
	if vcs > alloc.MaxVCs {
		bad("vcs", "at most %d VCs per port (one arbiter word), got %d", alloc.MaxVCs, vcs)
	}
	if e.Topology == "torus" && vcs < 2 && (w >= 3 || h >= 3) {
		bad("vcs", "a torus with wraparound rings needs at least 2 VCs for the dateline classes, got %d", vcs)
	}
	switch kind := alloc.Kind(e.Allocator); {
	case e.Allocator != "" && !alloc.Known(kind):
		bad("allocator", "unknown allocator %q; want one of %v", e.Allocator, alloc.Kinds())
	case kind == alloc.KindIdeal && k != vcs:
		bad("allocator", "ideal needs one crossbar row per VC (virtual_inputs == vcs), got %d != %d", k, vcs)
	case kind == alloc.KindSparoflo && k != 1:
		bad("allocator", "sparoflo is defined on the conventional crossbar (virtual_inputs == 1), got %d", k)
	}
	switch e.Policy {
	case "", "maxfree", "dimension", "balanced":
	default:
		bad("policy", "unknown policy %q; want maxfree, dimension, or balanced", e.Policy)
	}
	switch e.Partition {
	case "", "contiguous", "interleaved":
	default:
		bad("partition", "unknown partition %q; want contiguous or interleaved", e.Partition)
	}

	if pat := e.Pattern; pat != "" && !traffic.Known(pat) {
		bad("pattern", "unknown traffic pattern %q; want one of %v", pat, traffic.Names())
	} else if nodes >= 2 {
		// The pattern must be defined on the node grid Build hands it.
		if pat == "" {
			pat = "uniform"
		}
		gw, gh := nodeGrid(nodes)
		if _, err := traffic.New(pat, gw, gh); err != nil {
			bad("pattern", "%s", strings.TrimPrefix(err.Error(), "traffic: "))
		}
	}
	// Negated so that NaN, which compares false to everything, is rejected.
	if !(e.InjectionRate >= 0 && e.InjectionRate <= 1) {
		bad("injection_rate", "must be in [0, 1] packets/cycle/node, got %g", e.InjectionRate)
	} else if e.InjectionRate == 0 && !e.MaxInjection {
		bad("injection_rate", "must be positive unless max_injection is set: a network that never injects measures nothing")
	}
	if e.PacketSize < 0 {
		bad("packet_size", "must be non-negative, got %d", e.PacketSize)
	}

	if e.Warmup < 0 {
		bad("warmup", "must be non-negative, got %d", e.Warmup)
	}
	if e.Measure < 1 {
		bad("measure", "must be at least 1, got %d: a zero-cycle measurement is a row of zeros", e.Measure)
	}
	if e.HopDelay < 0 {
		bad("hop_delay", "must be non-negative, got %d", e.HopDelay)
	}

	if len(errs) == 0 {
		return nil
	}
	return errs
}
