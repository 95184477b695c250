// Package energy models network energy per bit (the paper's Figure 11).
// The paper built SPICE models of links, buffers, and switches, including
// clocking and leakage, and combined them with activity factors from
// cycle-accurate simulation; this package substitutes calibrated
// per-component energy constants driven by the same kind of activity
// counters (see DESIGN.md, "Substitutions").
//
// The component structure matches the paper: buffer read/write energy and
// link energy scale with flit activity; crossbar energy scales with the
// crossbar's port count (a kP x P VIX crossbar has longer output wires,
// so switch energy grows with k); clock and leakage accrue per router
// per cycle and are amortised over the delivered bits.
package energy

import (
	"errors"

	"vix/internal/stats"
)

// The 45 nm calibration used for Figure 11: per-component energy
// constants in picojoules. The absolute scale is a calibration, but the
// paper's Figure 11 claim (VIX raises total energy/bit by about 4%
// through the larger crossbar) is about the relative component
// structure. The component shares at the paper's operating point (mesh,
// 0.1 packets/cycle/node, 4-flit 512-bit packets) are roughly: buffer
// 30%, switch 7%, link 36%, clock 16%, leakage 11% — typical published
// NoC breakdowns — which yields the paper's ~4% total increase when the
// crossbar grows from 5x5 to 10x5.
const (
	// bufferWrite and bufferRead are pJ per bit per buffer access.
	bufferWrite = 0.071
	bufferRead  = 0.071
	// xbarPortUnit is pJ per bit per (inputs + outputs) port unit of the
	// traversed crossbar: matrix-crossbar wire length grows linearly in
	// each port count.
	xbarPortUnit = 0.0037
	// link is pJ per bit per link traversal (1 mm inter-router wire).
	link = 0.203
	// clockPerRouterCycle and leakPerRouterCycle are pJ per router per
	// cycle. VIX adds input registers and crossbar area: each extra
	// virtual input per port multiplies clock by (1+clockVIXFactor) and
	// leakage by (1+leakVIXFactor).
	clockPerRouterCycle = 24.6
	leakPerRouterCycle  = 16.9
	clockVIXFactor      = 0.02
	leakVIXFactor       = 0.05
	// flitBits is the datapath width (128 in the paper).
	flitBits = 128
)

// Breakdown is energy per delivered payload bit, by component (pJ/bit).
type Breakdown struct {
	Buffer  float64
	Switch  float64
	Link    float64
	Clock   float64
	Leakage float64
	Total   float64
}

// Network describes the simulated network the snapshot came from. Each
// router's crossbar has K·Radix inputs and Radix outputs.
type Network struct {
	Routers int
	Radix   int // ports per router
	K       int // virtual inputs per port
}

// PerBit converts a measurement snapshot into an energy-per-bit breakdown.
func PerBit(s stats.Snapshot, nw Network) (Breakdown, error) {
	if s.FlitsEjected == 0 {
		return Breakdown{}, errors.New("energy: no delivered flits in snapshot")
	}
	if nw.Routers <= 0 {
		return Breakdown{}, errors.New("energy: invalid network description")
	}
	bits := float64(s.FlitsEjected) * flitBits

	var b Breakdown
	b.Buffer = (float64(s.BufferWrites)*bufferWrite + float64(s.BufferReads)*bufferRead) * flitBits / bits
	xbarPerBit := xbarPortUnit * float64(nw.K*nw.Radix+nw.Radix)
	b.Switch = float64(s.XbarTraversals) * xbarPerBit * flitBits / bits
	b.Link = float64(s.LinkTraversals) * link * flitBits / bits

	extra := float64(nw.K - 1)
	routerCycles := float64(s.Cycles) * float64(nw.Routers)
	b.Clock = routerCycles * clockPerRouterCycle * (1 + clockVIXFactor*extra) / bits
	b.Leakage = routerCycles * leakPerRouterCycle * (1 + leakVIXFactor*extra) / bits

	b.Total = b.Buffer + b.Switch + b.Link + b.Clock + b.Leakage
	return b, nil
}
