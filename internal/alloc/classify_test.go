package alloc_test

import (
	"testing"

	"vix/internal/alloc"
)

// One request of each class: port 0's row sends VC 0 to output 0, so
// VC 1 behind it is row taken, port 1's request for output 0 is output
// taken, and port 2's request for the idle output 2 is both free. A
// Losses reused across calls allocates nothing.
func TestClassifyPutsEachLossInOneClass(t *testing.T) {
	rs := alloc.RequestSet{
		Config: alloc.Config{Ports: 3, VCs: 2, VirtualInputs: 1},
		Requests: []alloc.Request{
			{Port: 0, VC: 0, OutPort: 0},
			{Port: 0, VC: 1, OutPort: 1},
			{Port: 1, VC: 0, OutPort: 0},
			{Port: 2, VC: 1, OutPort: 2},
		},
	}
	grants := []alloc.Grant{{IVC: 0, OutPort: 0, Row: 0}}
	if err := alloc.Validate(&rs, grants); err != nil {
		t.Fatal(err)
	}
	var l alloc.Losses
	alloc.Classify(&rs, grants, &l)
	if l.Granted != 1 || l.RowTaken != 1 || l.OutputTaken != 1 || l.BothFree != 1 {
		t.Errorf("losses %+v, want one of each", l)
	}
	if avg := testing.AllocsPerRun(100, func() { alloc.Classify(&rs, grants, &l) }); avg != 0 {
		t.Errorf("Classify allocates %v times per call on a reused Losses; want 0", avg)
	}
}
