//go:build !race

package router

// raceBuild reports whether the race detector is on: it pads heap
// objects, so byte counts differ from a normal build's.
const raceBuild = false
