// Package cli holds what the grid commands (cmd/figures, cmd/sweep)
// would otherwise each carry a copy of: the harness progress logger
// behind -v and the pprof start/stop behind -cpuprofile/-memprofile.
package cli

import (
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"vix/internal/harness"
)

// Progress returns a harness.Options.OnDone callback that logs one line
// per finished point: its wall time and cycles/sec, or that it was
// served from the manifest. log.Logger serialises concurrent callers.
func Progress(l *log.Logger) func(harness.Result) {
	return func(r harness.Result) {
		if r.Cached {
			l.Printf("%s: cached (manifest)", r.Name)
			return
		}
		l.Printf("%s: %v (%.0f cycles/sec)", r.Name, r.Telemetry.Duration().Round(time.Millisecond), r.Telemetry.CyclesPerSec)
	}
}

// Profile starts a CPU profile into cpuPath and returns a stop function
// that ends it and then writes a post-GC heap profile to memPath. Either
// path may be empty; with both empty stop does nothing. stop must be
// called exactly once, after the work being profiled.
func Profile(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		mem, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(mem); err != nil {
			mem.Close()
			return fmt.Errorf("heap profile: %w", err)
		}
		return mem.Close()
	}, nil
}
