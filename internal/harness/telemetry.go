package harness

import (
	"time"

	"vix/internal/store"
)

// wallClock reads the wall clock for telemetry. This is the only
// sanctioned wall-clock read in internal/: the value annotates harness
// throughput and never reaches a simulation result or merged artifact,
// so reproducibility is unaffected.
func wallClock() time.Time {
	//vixlint:ordered telemetry-only wall-clock read; the value never flows into simulation results or merged artifacts
	return time.Now()
}

// newTelemetry computes a job's telemetry from its start time and
// simulated cycle count. Telemetry is emitted alongside results (the -v
// stderr logs of cmd/figures and cmd/sweep) but never enters a merged
// artifact: the CSVs and tables the harness produces stay byte-identical
// across machines and worker counts.
func newTelemetry(start time.Time, cycles int64) store.Telemetry {
	elapsed := wallClock().Sub(start)
	t := store.Telemetry{WallNanos: elapsed.Nanoseconds(), Cycles: cycles}
	if secs := elapsed.Seconds(); secs > 0 && cycles > 0 {
		t.CyclesPerSec = float64(cycles) / secs
	}
	return t
}
