package service

import (
	"bytes"
	"encoding/json"
	"testing"
)

// heldSpellings are the specs FuzzScanCases' table holds, each in the
// bytes it was admitted in: compact, spaced, a max-injection spec that
// omits its rate, and a canonical text.
var heldSpellings = []string{
	`{"width":4,"height":4,"warmup":10,"measure":30,"injection_rate":0.05}`,
	`{"width": 4, "height": 4, "warmup": 10, "measure": 30, "allocator": "wavefront", "virtual_inputs": 2, "injection_rate": 0.02}`,
	`{"width":4,"height":4,"warmup":10,"measure":30,"max_injection":true}`,
	`{"topology":"mesh","width":4,"height":4,"vcs":6,"buf_depth":5,"virtual_inputs":1,"allocator":"if","pattern":"uniform","injection_rate":0.03,"packet_size":4,"warmup":10,"measure":30,"seed":1}`,
}

// FuzzScanCases: a body scanCases accepts is one the decoder accepts too
// (decodeBody + parseCases, in the same form), with equal names, infos,
// spec bytes and close.
func FuzzScanCases(f *testing.F) {
	s := &Server{}
	for _, spec := range heldSpellings {
		specs, err := s.parseCases([]caseRequest{{Spec: json.RawMessage(spec)}})
		if err != nil {
			f.Fatal(err)
		}
		s.specs.intern(specs[0])
	}
	h := heldSpellings
	grid := `{"cases":[{"spec":` + h[0] + `},{"spec":` + h[1] + `,"name":"k2"},{"spec":` + h[2] + `},{"spec":` + h[3] + `}],"close":true}`
	pretty := "{\n  \"close\": false,\n  \"name\": \"pretty\",\n  \"cases\": [\n    {\n      \"name\": \"first\",\n      \"spec\": " + h[2] + "\n    },\n    {\"spec\": " + h[1] + "}\n  ]\n}\n"
	if _, ok := s.specs.scanCases([]byte(grid), false); !ok {
		f.Fatal("the warm grid seed does not scan")
	}
	if _, ok := s.specs.scanCases([]byte(pretty), true); !ok {
		f.Fatal("the pretty-printed, reordered seed does not scan")
	}
	for _, seed := range []struct {
		body  string
		named bool
	}{
		{grid, false},
		{pretty, true},
		{`{"cases":[{"spec":` + h[0] + `,"spec":` + h[3] + `}]}`, false},
		{`{"Cases":[{"spec":` + h[0] + `}]}`, true},
		{`{"name":"a\"b","cases":[{"name":"cd","spec":` + h[0] + `}]}`, true},
		{`{"cases":[{"spec":` + h[2] + `}],"close":truex}`, false},
		{grid + ` {"cases":[]}`, true},
	} {
		f.Add([]byte(seed.body), seed.named)
	}
	f.Fuzz(func(t *testing.T, body []byte, named bool) {
		got, ok := s.specs.scanCases(body, named)
		if !ok {
			return
		}
		want, err := s.decodeRequest(bytes.NewReader(body), named)
		if err != nil {
			t.Fatalf("scanCases accepts %q (named %v); the decoder refuses it: %v", body, named, err)
		}
		if got.name != want.name || got.close != want.close || len(got.specs) != len(want.specs) {
			t.Fatalf("%q: scanned name %q, close %v, %d cases; decoded %q, %v, %d",
				body, got.name, got.close, len(got.specs), want.name, want.close, len(want.specs))
		}
		for i, g := range got.specs {
			if w := want.specs[i]; g.Name != w.Name || g.info != w.info || !bytes.Equal(g.text, w.text) {
				t.Errorf("%q: case %d scanned as %q %q (%s), decoded as %q %q (%s)",
					body, i, g.Name, g.text, g.info.storeID, w.Name, w.text, w.info.storeID)
			}
		}
	})
}
