package router

import (
	"strings"
	"testing"

	"vix/internal/alloc"
)

// faulty is a registered allocator that hands on the grants of a built-in
// one after fault has rewritten them: the shape of a registered allocator
// with a bug. The router must refuse a grant it cannot carry out rather
// than misroute or double-pop a flit.
type faulty struct {
	alloc.Allocator
	fault  func(rs *alloc.RequestSet, grants []alloc.Grant) []alloc.Grant
	grants []alloc.Grant
}

func (f *faulty) Allocate(rs *alloc.RequestSet) []alloc.Grant {
	f.grants = f.fault(rs, append(f.grants[:0], f.Allocator.Allocate(rs)...))
	return f.grants
}

// faultyKind registers (once) and returns the kind named name that
// builds the input-first allocator inside the faulty wrapper.
func faultyKind(t *testing.T, name string, fault func(rs *alloc.RequestSet, grants []alloc.Grant) []alloc.Grant) alloc.Kind {
	t.Helper()
	kind := alloc.Kind("faulty:" + name)
	if alloc.Known(kind) {
		return kind
	}
	err := alloc.Register(kind, func(cfg alloc.Config) (alloc.Allocator, error) {
		return &faulty{Allocator: alloc.NewSeparableIF(cfg), fault: fault}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return kind
}

// advanceFaulty loads testRouter (router 7, 6 VCs a port, k = 1) under
// kind with one single-flit packet in input VC 6 (port 1, VC 0) and one in
// input VC 12 (port 2, VC 0), both routed to output 3, plus one more per
// extra {port, vc, route}, and advances it one cycle. The input-first
// allocator grants output 3 to input VC 6. It returns the message Advance
// panicked with, or "" if it did not.
func advanceFaulty(t *testing.T, kind alloc.Kind, extra ...[3]int) (msg string) {
	t.Helper()
	cfg := baseConfig()
	cfg.AllocKind = kind
	r := testRouter(t, cfg)
	deliver(r, 1, 0, 3, NewPacket(1, 0, 9, 1, 0))
	deliver(r, 2, 0, 3, NewPacket(2, 0, 9, 1, 0))
	for i, e := range extra {
		deliver(r, e[0], e[1], e[2], NewPacket(uint64(3+i), 0, 9, 1, 0))
	}
	defer func() {
		if p := recover(); p != nil {
			msg, _ = p.(string)
			if msg == "" {
				t.Fatalf("Advance panicked with %v, want a message", p)
			}
		}
	}()
	r.Advance(0, 0)
	return ""
}

// wantRefusal fails unless msg is the router's refusal of a grant and
// contains every part of want.
func wantRefusal(t *testing.T, name, msg string, want ...string) {
	t.Helper()
	if msg == "" {
		t.Errorf("%s: the router carried the grants out; want a panic", name)
		return
	}
	for _, w := range append([]string{"router 7: a grant sends"}, want...) {
		if !strings.Contains(msg, w) {
			t.Errorf("%s: panic %q does not say %q", name, msg, w)
		}
	}
}

// The wrapper with no fault is a working registered allocator: the
// checks refuse nothing the built-in kinds grant.
func TestFaultFreeWrapperIsCarriedOut(t *testing.T) {
	kind := faultyKind(t, "none", func(_ *alloc.RequestSet, grants []alloc.Grant) []alloc.Grant { return grants })
	if msg := advanceFaulty(t, kind); msg != "" {
		t.Fatalf("a legal grant set was refused: %s", msg)
	}
}

// A grant to a VC with no request this cycle is refused: a VC granted a
// second time, whose first grant would have popped a flit twice, and a VC
// that requests nothing.
func TestRouterRefusesAGrantWithoutARequest(t *testing.T) {
	twice := faultyKind(t, "vc-twice", func(_ *alloc.RequestSet, grants []alloc.Grant) []alloc.Grant {
		return append(grants, grants[0])
	})
	wantRefusal(t, "VC granted twice", advanceFaulty(t, twice), "input VC 6 to output 3", "no request left")
	idle := faultyKind(t, "idle-vc", func(_ *alloc.RequestSet, grants []alloc.Grant) []alloc.Grant {
		return append(grants, alloc.Grant{IVC: 7, OutPort: 3, Row: 1}) // port 1, VC 1 is empty
	})
	wantRefusal(t, "idle VC", advanceFaulty(t, idle), "input VC 7 to output 3", "no request left")
}

// A grant that sends a VC to an output it did not request is refused,
// instead of emitting its flit there and taking that output's credit.
func TestRouterRefusesAGrantToAnotherOutput(t *testing.T) {
	kind := faultyKind(t, "other-output", func(_ *alloc.RequestSet, grants []alloc.Grant) []alloc.Grant {
		grants[0].OutPort = 4
		return grants
	})
	wantRefusal(t, "misrouted grant", advanceFaulty(t, kind), "input VC 6 to output 4", "requests output 3")
}

// Two grants of one output in one cycle are refused: the crossbar column
// carries one flit.
func TestRouterRefusesAnOutputGrantedTwice(t *testing.T) {
	kind := faultyKind(t, "output-twice", func(rs *alloc.RequestSet, grants []alloc.Grant) []alloc.Grant {
		return append(grants, alloc.Grant{IVC: 12, OutPort: int(rs.Out[12]), Row: rs.Config.Row(2, 0)})
	})
	wantRefusal(t, "output granted twice", advanceFaulty(t, kind), "input VC 12 to output 3", "already granted")
}

// Two grants from one crossbar row in one cycle are refused: a row
// carries one flit. At k = 1 a port's VCs share its row, so input VC 7
// (port 1, VC 1), requesting the free output 4, may not go beside input
// VC 6. The row is read from the router's geometry, not from Grant.Row.
func TestRouterRefusesTwoGrantsFromOneRow(t *testing.T) {
	kind := faultyKind(t, "row-twice", func(rs *alloc.RequestSet, grants []alloc.Grant) []alloc.Grant {
		return append(grants, alloc.Grant{IVC: 7, OutPort: int(rs.Out[7]), Row: 0})
	})
	wantRefusal(t, "row granted twice", advanceFaulty(t, kind, [3]int{1, 1, 4}),
		"input VC 7 to output 4", "input VC 6, granted this cycle, shares its crossbar row 1")
}
