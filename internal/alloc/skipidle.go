package alloc

// IdleSkipper is inert: no caller in the module invokes SkipIdle, and an
// allocator's state depends on RequestSet.Cycle, never on calls it did
// not get (Allocator). It and the built-in kinds' no-op methods remain
// for wrappers that still delegate SkipIdle.
type IdleSkipper interface {
	SkipIdle(cycles int)
}

// SkipIdle implements IdleSkipper; it does nothing. Ideal and
// SeparableAge, which run on the same state, inherit it.
func (s *SeparableIF) SkipIdle(int) {}

// SkipIdle implements IdleSkipper; it does nothing.
func (s *ISLIP) SkipIdle(int) {}

// SkipIdle implements IdleSkipper; it does nothing.
func (s *Sparoflo) SkipIdle(int) {}

// SkipIdle implements IdleSkipper; it does nothing.
func (a *AugmentingPath) SkipIdle(int) {}

// SkipIdle implements IdleSkipper; it does nothing.
func (w *Wavefront) SkipIdle(int) {}

// SkipIdle implements IdleSkipper; it does nothing.
func (c *PacketChaining) SkipIdle(int) {}
