//go:build race

package network

// raceBuild reports whether the race detector is on: it pads heap
// objects, so byte counts differ from a normal build's.
const raceBuild = true
