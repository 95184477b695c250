// Package clock seeds one determinism/time violation: an unexported
// wall-clock read that exported functions and methods reach through
// calls. The site is reported once; its callers are not.
package clock

import "time"

// stamp is the violation site. The direct rule fires here, exported or
// not, which is what keeps every caller below honest.
func stamp() int64 { return time.Now().UnixNano() }

// Stamp reaches the wall clock one call deep.
func Stamp() int64 { return stamp() }

// Ticker is dispatched through an interface from the drive package.
type Ticker struct{}

// Tick reaches the wall clock through a method.
func (Ticker) Tick() int64 { return stamp() }

// clean reads the clock behind a justified waiver: no finding.
func clean() int64 {
	return time.Now().Unix() //vixlint:ordered fixture: a waived site reports nothing
}

// Clean calls only the waived site and must stay unreported.
func Clean() int64 { return clean() }
