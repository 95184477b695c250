// Package drive reaches the clock package's violation indirectly:
// through interface dispatch and through an address-taken func value.
package drive

import "fix/internal/clock"

// Ticker is resolved by class-hierarchy analysis; clock.Ticker
// implements it.
type Ticker interface{ Tick() int64 }

// Drive dispatches through the interface: two hops from the wall clock.
func Drive(t Ticker) int64 { return t.Tick() }

// Run calls through a func value, which the graph resolves to every
// address-taken module function with an identical signature.
func Run(f func() int64) int64 { return f() }

// Default passes the clock-reading clock.Stamp as the func value.
func Default() int64 { return Run(clock.Stamp) }
