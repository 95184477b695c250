package service

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"vix/internal/config"
	"vix/internal/harness"
)

// TestAdmissionIdentity: whatever spelling a spec arrives in, and in
// whatever order its spellings are admitted, a case's store ID is the
// one harness.JobID gives the decoded spec, and the intern table holds
// one store ID per distinct spec and at most one spelling of it, which
// decodes to it and is no longer than its canonical text. The canonical,
// reordered and explicit-default spellings are one spec; an explicit
// "vcs":0 is another, whose canonical text (vcs omitted) decodes to the
// first spec with the default 6 VCs — so that text, admitted after it,
// must not find the "vcs":0 spec's store ID.
func TestAdmissionIdentity(t *testing.T) {
	canonical := func(text string) string {
		e, err := config.Decode(bytes.NewReader([]byte(text)))
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	zeroVCs := `{"width":4,"height":4,"vcs":0,"warmup":10,"measure":30,"injection_rate":0.05,"seed":3}`
	spellings := []string{
		canonical(`{"width": 4, "height": 4, "warmup": 10, "measure": 30, "injection_rate": 0.05, "seed": 3}`),
		"{ \"seed\": 3,\n\t\"injection_rate\": 0.05, \"measure\": 30, \"warmup\": 10, \"height\": 4, \"width\": 4 }",
		`{"topology":"mesh","width":4,"height":4,"vcs":6,"buf_depth":5,"virtual_inputs":1,"allocator":"if","pattern":"uniform","packet_size":4,"injection_rate":0.05,"warmup":10,"measure":30,"seed":3}`,
		zeroVCs,
		canonical(zeroVCs),
	}
	const distinct = 2
	for _, order := range []string{"forward", "reverse"} {
		t.Run(order, func(t *testing.T) {
			s, err := New(Config{Runners: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			texts := append([]string(nil), spellings...)
			if order == "reverse" {
				for i, j := 0, len(texts)-1; i < j; i, j = i+1, j-1 {
					texts[i], texts[j] = texts[j], texts[i]
				}
			}
			var raw []caseRequest
			for range 2 { // the second pass finds every spelling admitted
				for _, text := range texts {
					raw = append(raw, caseRequest{Spec: json.RawMessage(text)})
				}
			}
			su, err := s.createSuite("")
			if err != nil {
				t.Fatal(err)
			}
			for _, cr := range raw {
				specs, err := s.parseCases([]caseRequest{cr})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.submit(su, specs, false); err != nil {
					t.Fatal(err)
				}
				e, err := config.Decode(bytes.NewReader(cr.Spec))
				if err != nil {
					t.Fatal(err)
				}
				want, err := harness.JobID(harness.Job{Name: specLabel(e), Spec: e})
				if err != nil {
					t.Fatal(err)
				}
				if got := specs[0].info.storeID; got != want {
					t.Errorf("%s: store ID %s, want JobID of the decoded spec %s", cr.Spec, got, want)
				}
				if got, want := specs[0].info.cycles, int64(e.Warmup+e.Measure); got != want {
					t.Errorf("%s: cycles %d, want %d", cr.Spec, got, want)
				}
			}
			su.close()

			s.specs.mu.Lock()
			defer s.specs.mu.Unlock()
			if n := len(s.specs.byID); n != distinct {
				t.Errorf("intern table holds %d store IDs, want one per distinct spec (%d)", n, distinct)
			}
			spellings := map[*specInfo]int{}
			for spelling, info := range s.specs.bySpelling {
				if spellings[info]++; spellings[info] > 1 {
					t.Errorf("store ID %s has %d spellings, want at most one", info.storeID, spellings[info])
				}
				if s.specs.byID[info.storeID] != info {
					t.Errorf("spelling %q holds an info its store ID %s does not", spelling, info.storeID)
				}
				e, err := config.Decode(bytes.NewReader([]byte(spelling)))
				if err != nil {
					t.Fatalf("spelling %q does not decode: %v", spelling, err)
				}
				canon, err := json.Marshal(e)
				if err != nil {
					t.Fatal(err)
				}
				if got := harness.SpecID(specLabel(e), canon); got != info.storeID {
					t.Errorf("spelling %q holds store ID %s, its spec hashes to %s", spelling, info.storeID, got)
				}
				if len(spelling) > len(canon) {
					t.Errorf("spelling %q is longer than its spec's canonical text %s", spelling, canon)
				}
			}
		})
	}
}

// admitOne admits one case of spec into a new closed suite of s and
// returns the case's interned info.
func admitOne(t *testing.T, s *Server, spec string) *specInfo {
	t.Helper()
	specs, err := s.parseCases([]caseRequest{{Spec: json.RawMessage(spec)}})
	if err != nil {
		t.Fatal(err)
	}
	su, err := s.createSuite("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.submit(su, specs, true); err != nil {
		t.Fatal(err)
	}
	return specs[0].info
}

// TestMaxInjectionSpellingIsHeld: a max-injection spec that omits its
// rate decodes with the default rate 0.05, which its canonical text
// spells, so the bytes such a client sends are never the canonical text.
// Once admitted, they are the spec's spelling: lookup finds them, and a
// body of them scans.
func TestMaxInjectionSpellingIsHeld(t *testing.T) {
	s, err := New(Config{Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const spec = `{"width":4,"height":4,"warmup":10,"measure":30,"max_injection":true}`
	info := admitOne(t, s, spec)
	if got := s.specs.lookup([]byte(spec)); got != info {
		t.Errorf("lookup of the admitted spelling = %v, want its info %v", got, info)
	}
	req, ok := s.specs.scanCases([]byte(`{"cases":[{"spec":`+spec+`},{"spec":`+spec+`}]}`), false)
	if !ok {
		t.Fatal("a body of the admitted spelling does not scan")
	}
	for i, cs := range req.specs {
		if cs.info != info || string(cs.text) != spec {
			t.Errorf("scanned case %d = %q with info %v, want %q with %v", i, cs.text, cs.info, spec, info)
		}
	}
}

// TestPaddedSpellingIsNotKept: a spec first sent padded past its
// canonical length is interned by store ID alone, so a padded body pins
// no bytes in the table, and its compact spelling, sent next, finds the
// same info by decoding — and is not kept either, since the ID is known.
func TestPaddedSpellingIsNotKept(t *testing.T) {
	s, err := New(Config{Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const compact = `{"width":4,"height":4,"warmup":10,"measure":30,"injection_rate":0.05,"seed":9}`
	padded := `{"width":4,` + strings.Repeat(" ", 4096) + `"height":4,"warmup":10,"measure":30,"injection_rate":0.05,"seed":9}`
	info := admitOne(t, s, padded)
	if got := admitOne(t, s, compact); got != info {
		t.Errorf("compact spelling resolves to store ID %s, want the padded one's %s", got.storeID, info.storeID)
	}
	s.specs.mu.Lock()
	defer s.specs.mu.Unlock()
	if n, m := len(s.specs.byID), len(s.specs.bySpelling); n != 1 || m != 0 {
		t.Errorf("intern table holds %d store IDs and %d spellings, want 1 and 0", n, m)
	}
}

// TestAppendResultLineMatchesMarshal: the line appender writes the bytes
// json.Marshal writes for the same resultLine, over names and errors that
// exercise every escape encoding/json makes, and values in the form the
// store serves them.
func TestAppendResultLineMatchesMarshal(t *testing.T) {
	texts := []string{
		"",
		"vixd/if:2/0.05",
		"a<b>&c",
		`quote" back\slash /`,
		"ctl\x00\x01\b\f\n\r\t\x1f\x7f",
		"sep\u2028 para\u2029",
		"bad\xff\xfe utf8 \xe2\x80",
		"é ü 漢字 🙂",
	}
	storedValue := func(v any) json.RawMessage {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	values := []json.RawMessage{
		nil,
		json.RawMessage(`null`),
		storedValue(caseValue{AvgLatency: 21.5, P99Latency: 40, Fairness: "+Inf"}),
		storedValue(map[string]string{"note": "<&>\u2028"}),
	}
	for _, text := range texts {
		for _, v := range values {
			for _, status := range []string{"done", "failed"} {
				ln := resultLine{Case: caseID(7), Name: text, ID: "cc98b8a27d875f5b5c507929", Status: status, Value: v, Error: text}
				want, err := json.Marshal(ln)
				if err != nil {
					t.Fatal(err)
				}
				if got := appendResultLine([]byte("prefix"), ln); string(got) != "prefix"+string(want) {
					t.Errorf("%+q:\n got %s\nwant prefix%s", text, got, want)
				}
			}
		}
	}
}
