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
// order. Kinds, Known, New and Register all read it, so a kind is listed
// exactly when it is constructible, and adding a comparison point is one
// row here plus a green FuzzAllocate and TestRegistry (which holds Name()
// to the row's kind).
var builtins = []struct {
	kind Kind
	new  func(Config) (Allocator, error)
}{
	{KindSeparableIF, constructor(nil, NewSeparableIF)},
	{KindWavefront, constructor(nil, NewWavefront)},
	{KindAugmentingPath, constructor(nil, NewAugmentingPath)},
	{KindPacketChaining, constructor(nil, NewPacketChaining)},
	{KindIdeal, constructor(idealGeometry, NewIdeal)},
	{KindISLIP, constructor(nil, NewISLIP)},
	{KindSparoflo, constructor(sparofloGeometry, NewSparoflo)},
	{KindSeparableAge, constructor(nil, NewSeparableAge)},
}

// constructor adapts an exported NewX, which panics on a Config it
// cannot carry, to a registry row's constructor: a valid cfg that fails
// the kind's geometry check (nil: every valid Config will do) comes back
// as that check's error instead.
func constructor[A Allocator](geometry func(Config) error, build func(Config) A) func(Config) (Allocator, error) {
	return func(cfg Config) (Allocator, error) {
		if geometry != nil {
			if err := geometry(cfg); err != nil {
				return nil, err
			}
		}
		return build(cfg), nil
	}
}

// builtin returns kind's row constructor, or nil if kind is not built in.
func builtin(kind Kind) func(Config) (Allocator, error) {
	for _, b := range builtins {
		if b.kind == kind {
			return b.new
		}
	}
	return nil
}

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
// before a configuration ever reaches New.
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

// New constructs an allocator of the given kind for cfg.
func New(kind Kind, cfg Config) (Allocator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if factory, ok := custom[kind]; ok {
		return factory(cfg)
	}
	if build := builtin(kind); build != nil {
		return build(cfg)
	}
	return nil, fmt.Errorf("alloc: unknown allocator kind %q", kind)
}
