package alloc

import "fmt"

// Kind names a switch-allocation scheme from the paper's evaluation.
type Kind string

// The allocation schemes of Section 4.1 plus the packet-chaining
// comparison point of Section 4.4.
const (
	// KindSeparableIF is the separable input-first allocator (IF). With
	// Config.VirtualInputs = 2 it is the paper's VIX configuration.
	KindSeparableIF Kind = "if"
	// KindWavefront is the wavefront allocator (WF).
	KindWavefront Kind = "wavefront"
	// KindAugmentingPath is maximum matching via augmenting paths (AP).
	KindAugmentingPath Kind = "ap"
	// KindPacketChaining is SameInput/anyVC packet chaining (PC).
	KindPacketChaining Kind = "pc"
	// KindIdeal serves every requested output port each cycle; it models
	// a crossbar with one virtual input per VC.
	KindIdeal Kind = "ideal"
	// KindISLIP is the iterative separable allocator of McKeown with two
	// grant/accept iterations.
	KindISLIP Kind = "islip"
	// KindSparoflo approximates the SPAROFLO allocator of Kumar et al.:
	// two requests per port exposed to output arbitration, conflicts
	// resolved after the fact on a conventional crossbar.
	KindSparoflo Kind = "sparoflo"
	// KindSeparableAge is the separable input-first allocator with
	// oldest-first prioritisation in both phases (the SPAROFLO-style
	// optimisation the paper suggests integrating with VIX).
	KindSeparableAge Kind = "if-age"
)

// builtins is the registry: one row per built-in kind, in evaluation
// order. Kinds, Known, NewMany and Register all read it, so a kind is
// listed exactly when it is constructible, and adding a comparison point
// is one row here plus a green FuzzAllocate and TestRegistry (which holds
// Name() to the row's kind). A row builds n views of one pool with lanes
// lanes of scratch; NewMany, its only caller, has already validated cfg
// and its geometry, so a row checks neither.
var builtins = []struct {
	kind Kind
	many func(cfg Config, n, lanes int) []Allocator
}{
	{KindSeparableIF, many(newSeparableIFs)},
	{KindWavefront, many(newWavefronts)},
	{KindAugmentingPath, many(newAugmentingPaths)},
	{KindPacketChaining, many(newPacketChainings)},
	{KindIdeal, many(newIdeals)},
	{KindISLIP, many(newISLIPs)},
	{KindSparoflo, many(newSparoflos)},
	{KindSeparableAge, many(newSeparableAges)},
}

// CheckGeometry reports why a valid cfg cannot carry kind, or nil: ideal
// needs a crossbar row per VC (on a shared row its "one flit per requested
// output" promise fails), SPAROFLO the conventional crossbar. NewMany
// returns the error before building anything, and config.Experiment's
// Validate asks it too.
func CheckGeometry(kind Kind, cfg Config) error {
	switch {
	case kind == KindIdeal && cfg.VirtualInputs != cfg.VCs:
		return fmt.Errorf("alloc: ideal allocator needs VirtualInputs == VCs (per-VC crossbar rows), got %d != %d", cfg.VirtualInputs, cfg.VCs)
	case kind == KindSparoflo && cfg.VirtualInputs != 1:
		return fmt.Errorf("alloc: sparoflo is defined on the conventional crossbar (VirtualInputs == 1), got %d", cfg.VirtualInputs)
	default:
		return nil
	}
}

// builtin returns kind's row constructor, or nil if kind is not built in.
func builtin(kind Kind) func(Config, int, int) []Allocator {
	for _, b := range builtins {
		if b.kind == kind {
			return b.many
		}
	}
	return nil
}

// IsBuiltin reports whether a is a built-in kind's allocator, which
// reads only a RequestSet's packed form. A caller that fills just the
// packed form (the router) fills Requests as well for any other.
func IsBuiltin(a Allocator) bool {
	switch a.(type) {
	case *SeparableIF, *Wavefront, *AugmentingPath, *PacketChaining, *Ideal, *ISLIP, *Sparoflo, *SeparableAge:
		return true
	}
	return false
}

// ReadsAge reports whether an allocator of kind may read a RequestSet's
// Age: KindSeparableAge, and any kind not built in, which may read the
// list form's ages. Every other built-in kind ignores Age, so a caller
// may leave it nil for them.
func ReadsAge(kind Kind) bool { return kind == KindSeparableAge || builtin(kind) == nil }

// Kinds lists all supported built-in allocator kinds in evaluation order.
func Kinds() []Kind {
	kinds := make([]Kind, len(builtins))
	for i, b := range builtins {
		kinds[i] = b.kind
	}
	return kinds
}

// Known reports whether kind names a built-in or registered allocator.
// It is the validation predicate spec checkers use to reject typos
// before a configuration ever reaches New or NewMany.
func Known(kind Kind) bool {
	_, registered := custom[kind]
	return registered || builtin(kind) != nil
}

// custom holds user-registered allocator factories (see Register).
var custom = map[Kind]func(Config) (Allocator, error){}

// Register installs a custom allocator factory under kind, making it
// usable anywhere a built-in Kind is accepted (router configs, the
// vixsim CLI). Registering a built-in kind or registering the same kind
// twice is an error. Register is not safe for concurrent use; call it
// during program initialisation.
//
// A registered allocator is held to Allocator's contract: Allocate runs
// once per cycle its router ticks, with RequestSet.Cycle set, and an idle
// router makes no call, so what rotates per cycle must be a function of
// Cycle, not a count of calls.
func Register(kind Kind, factory func(Config) (Allocator, error)) error {
	if factory == nil {
		return fmt.Errorf("alloc: nil factory for %q", kind)
	}
	if builtin(kind) != nil {
		return fmt.Errorf("alloc: cannot override built-in kind %q", kind)
	}
	if _, dup := custom[kind]; dup {
		return fmt.Errorf("alloc: kind %q already registered", kind)
	}
	custom[kind] = factory
	return nil
}

// New constructs an allocator of the given kind for cfg: NewMany's one,
// in one lane.
func New(kind Kind, cfg Config) (Allocator, error) {
	as, err := NewMany(kind, cfg, 1, 1)
	if err != nil {
		return nil, err
	}
	return as[0], nil
}

// NewMany constructs n allocators of the given kind for cfg, one per
// router of a network, whose Allocate calls come from at most lanes
// goroutines at once, each naming its own RequestSet.Lane below lanes. A
// built-in kind's are views of one pool (pool.go) with a scratch set per
// lane; a registered kind's are n calls to its factory, each instance its
// own.
func NewMany(kind Kind, cfg Config, n, lanes int) ([]Allocator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("alloc: cannot build %d allocators", n)
	}
	if lanes < 1 {
		return nil, fmt.Errorf("alloc: cannot build allocators for %d lanes", lanes)
	}
	if factory, ok := custom[kind]; ok {
		as := make([]Allocator, n)
		for i := range as {
			a, err := factory(cfg)
			if err != nil {
				return nil, err
			}
			as[i] = a
		}
		return as, nil
	}
	if build := builtin(kind); build != nil {
		if err := CheckGeometry(kind, cfg); err != nil {
			return nil, err
		}
		return build(cfg, n, lanes), nil
	}
	return nil, fmt.Errorf("alloc: unknown allocator kind %q", kind)
}
