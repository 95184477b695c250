// Package w seeds waiver/stale violations: directives that suppress
// nothing, next to a waiver that earns its keep.
package w

// The directive below covers no violation: flagged stale.
//
//vixlint:ordered nothing on the next line needs waiving
var Version = 3

// Noop carries a waiver with no map range in sight: flagged stale.
//
//vixlint:ordered no map range in sight
func Noop() {}

// Sum's waiver suppresses a real map-range violation: used, not stale.
func Sum(m map[string]int) int {
	total := 0
	//vixlint:ordered summation is commutative
	for _, v := range m {
		total += v
	}
	return total
}
