package config

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"vix/internal/alloc"
	"vix/internal/network"
	"vix/internal/traffic"
)

// specAxis is one fuzzed field of an Experiment, named by its JSON tag,
// and the values it ranges over.
type specAxis struct {
	field  string
	values []any
}

// specSpace is FuzzExperiment's configuration space. Every enumerated
// axis carries one value Validate must reject, and the numeric ones reach
// past the bounds of the small networks a fuzz run can afford (65 VCs).
func specSpace() []specAxis {
	ints := func(lo, hi int) []any {
		var vs []any
		for v := lo; v <= hi; v++ {
			vs = append(vs, v)
		}
		return vs
	}
	strs := func(ss ...string) []any {
		vs := make([]any, len(ss))
		for i, s := range ss {
			vs[i] = s
		}
		return vs
	}
	var kinds []string
	for _, k := range alloc.Kinds() {
		kinds = append(kinds, string(k))
	}
	bools := []any{false, true}
	return []specAxis{
		{"topology", strs("mesh", "torus", "cmesh", "fbfly", "ring")},
		{"width", ints(0, 12)},
		{"height", ints(0, 12)},
		{"conc", ints(0, 6)},
		{"vcs", append(ints(0, 12), 65)},
		{"virtual_inputs", ints(0, 12)},
		{"buf_depth", ints(0, 8)},
		{"allocator", strs(append(kinds, "magic")...)},
		{"policy", strs("", "maxfree", "dimension", "balanced", "psychic")},
		{"partition", strs("", "contiguous", "interleaved", "diagonal")},
		{"pattern", strs(append(traffic.Names(), "stampede")...)},
		{"injection_rate", []any{0.0, 0.05, 0.3, 1.0, math.NaN()}},
		{"max_injection", bools},
		{"packet_size", ints(0, 5)},
		{"hop_delay", ints(0, 4)},
		{"non_speculative", bools},
	}
}

// jsonField returns e's field whose JSON name is name, or the invalid
// Value if there is none.
func jsonField(e *Experiment, name string) reflect.Value {
	v := reflect.ValueOf(e).Elem()
	for i := 0; i < v.NumField(); i++ {
		if tag, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ","); tag == name {
			return v.Field(i)
		}
	}
	return reflect.Value{}
}

// fuzzSpec decodes a fuzz input into a point of specSpace: byte i picks
// axis i's value modulo its length (missing bytes pick the first value).
// The windows are fixed short ones.
func fuzzSpec(space []specAxis, b []byte) Experiment {
	e := Default()
	e.Warmup, e.Measure = 0, 40
	for i, ax := range space {
		pick := 0
		if i < len(b) {
			pick = int(b[i]) % len(ax.values)
		}
		jsonField(&e, ax.field).Set(reflect.ValueOf(ax.values[pick]))
	}
	return e
}

// encodeSpec is fuzzSpec's inverse for a seed given as JSON over the
// space's first values (every default, allocator if, pattern uniform) at
// rate 0.05: it fails unless every field lies on its axis.
func encodeSpec(space []specAxis, spec string) ([]byte, error) {
	e := fuzzSpec(space, nil)
	e.InjectionRate = 0.05
	if err := json.Unmarshal([]byte(spec), &e); err != nil {
		return nil, err
	}
	b := make([]byte, len(space))
next:
	for i, ax := range space {
		f := jsonField(&e, ax.field)
		for j, v := range ax.values {
			if f.Interface() == v {
				b[i] = byte(j)
				continue next
			}
		}
		return nil, fmt.Errorf("%s: %s %v is off its fuzz axis", spec, ax.field, f.Interface())
	}
	return b, nil
}

// runUnvalidated is Run without its Validate gate — build, a network, the
// windows — with a panic anywhere on the way turned into an error, so the
// simulator itself says whether it accepts a spec.
func runUnvalidated(e Experiment) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	cfg, err := e.build()
	if err != nil {
		return err
	}
	n, err := network.New(cfg)
	if err != nil {
		return err
	}
	n.Warmup(e.Warmup)
	n.Measure(e.Measure)
	return nil
}

// FuzzExperiment holds Validate to its contract over the spec space:
// Validate rejects a spec, naming only JSON fields of Experiment, or the
// simulator runs it without an error or a panic — and never both. `go
// test` replays the seeds; `make fuzz` mutates them. A failing input
// lands in testdata/fuzz/FuzzExperiment/ — commit it with the fix.
func FuzzExperiment(f *testing.F) {
	space := specSpace()
	for _, spec := range []string{
		`{}`,
		// The specs vixd's TestValidationErrors posts that lie on the axes.
		`{"allocator": "magic"}`,
		`{"width": 1, "height": 1}`,
		`{"pattern": "transpose", "width": 2, "height": 3}`,
		`{"pattern": "bitrev", "width": 3}`,
		`{"pattern": "shuffle", "width": 3}`,
		`{"vcs": 65}`,
		`{"allocator": "ideal"}`,
		`{"allocator": "sparoflo", "virtual_inputs": 2}`,
		`{"injection_rate": 0}`,
		// Classes with a rule of their own, on both sides of it.
		`{"allocator": "ideal", "vcs": 4, "virtual_inputs": 4}`,
		`{"allocator": "sparoflo", "virtual_inputs": 1}`,
		`{"topology": "torus", "width": 4, "height": 3}`,
		`{"topology": "torus", "width": 3, "vcs": 1}`,
		`{"topology": "torus", "width": 2, "vcs": 1}`,
		`{"vcs": 65, "virtual_inputs": 2, "allocator": "wavefront"}`,
		`{"topology": "cmesh", "width": 1, "height": 1, "conc": 2}`,
		`{"topology": "fbfly", "width": 1, "height": 1, "conc": 1}`,
		`{"injection_rate": 0, "max_injection": true, "packet_size": 1}`,
	} {
		b, err := encodeSpec(space, spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		e := fuzzSpec(space, b)
		verr, rerr := e.Validate(), runUnvalidated(e)
		if (verr == nil) != (rerr == nil) {
			t.Fatalf("%+v: Validate says %v, running it says %v", e, verr, rerr)
		}
		if verr == nil {
			return
		}
		var ve ValidationError
		if !errors.As(verr, &ve) {
			t.Fatalf("%+v: Validate returned %T, want a ValidationError", e, verr)
		}
		for _, fe := range ve {
			if !jsonField(&e, fe.Field).IsValid() {
				t.Errorf("%+v: finding %q names no JSON field of Experiment", e, fe)
			}
		}
	})
}
