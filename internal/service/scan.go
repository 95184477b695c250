package service

import (
	"bytes"
	"errors"
	"io"
	"net/http"
)

// request is what a POST body admits: the suite's name (POST /suites
// only), its cases, and whether to close the suite after them.
type request struct {
	name  string
	specs []caseSpec
	close bool
}

// readBody reads r's body once, up to maxBodyBytes, into a buffer
// presized from the declared length. It returns what it read and the
// read's error, an *http.MaxBytesError for a longer body.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	var buf bytes.Buffer
	if n := r.ContentLength; n >= 0 && n <= maxBodyBytes {
		buf.Grow(int(n) + bytes.MinRead) // ReadFrom wants MinRead spare bytes
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	return buf.Bytes(), err
}

// failedRead yields the error a body read ended in, after its bytes.
type failedRead struct{ err error }

func (f failedRead) Read([]byte) (int, error) { return 0, f.err }

// readRequest reads a POST body and admits its cases, writing the 400 or
// 413 itself when it cannot; named is POST /suites' form. A body whose
// every spec the table holds in the bytes it was first sent in is read
// by scanCases. Any other goes to encoding/json over the bytes already
// read, then the read's error, so a refusal is what decoding the request
// stream directly gives, byte for byte.
func (s *Server) readRequest(w http.ResponseWriter, r *http.Request, named bool) (request, bool) {
	body, err := readBody(w, r)
	if err == nil {
		if req, ok := s.specs.scanCases(body, named); ok {
			return req, true
		}
	}
	src := io.Reader(bytes.NewReader(body))
	if err != nil {
		src = io.MultiReader(src, failedRead{err})
	}
	req, err := s.decodeRequest(src, named)
	if err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, err)
		return request{}, false
	}
	return req, true
}

// scanCases reads a body of exactly the shape
//
//	{"cases":[{"spec":S,"name":N},…],"close":B,"name":N}
//
// — members in any order, each key spelled exactly and at most once, the
// top-level "name" only when named, N printable ASCII without escapes,
// B true or false, and only JSON whitespace between tokens — in which
// every spec S is a spelling the table holds. S runs from its '{' to the
// '}' that closes it outside strings. A held spelling is an object
// config.Decode accepted, so S is then the same bytes encoding/json
// reads as the spec's value, and the body means what decoding it would.
// Anything else is not ok, and goes to the decoder.
func (t *specTable) scanCases(body []byte, named bool) (request, bool) {
	sc := scanner{b: body}
	var req request
	var seen [3]bool // cases, close, name
	ok := sc.next('{') && sc.members(func(key []byte) bool {
		switch {
		case string(key) == "cases" && !seen[0]:
			seen[0] = true
			return sc.cases(&req.specs)
		case string(key) == "close" && !seen[1]:
			seen[1] = true
			var ok bool
			req.close, ok = sc.boolean()
			return ok
		case string(key) == "name" && named && !seen[2]:
			seen[2] = true
			name, ok := sc.str()
			req.name = string(name)
			return ok
		}
		return false
	})
	sc.ws()
	if !ok || sc.i != len(body) {
		return request{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range req.specs {
		info := t.bySpelling[string(req.specs[i].text)]
		if info == nil {
			return request{}, false
		}
		req.specs[i].info = info
	}
	return req, true
}

// scanner is scanCases' cursor over a body.
type scanner struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (sc *scanner) ws() {
	for sc.i < len(sc.b) {
		switch sc.b[sc.i] {
		case ' ', '\t', '\n', '\r':
			sc.i++
		default:
			return
		}
	}
}

// next consumes the byte c after whitespace, if it is there.
func (sc *scanner) next(c byte) bool {
	sc.ws()
	if sc.i < len(sc.b) && sc.b[sc.i] == c {
		sc.i++
		return true
	}
	return false
}

// str reads a string of printable ASCII without escapes and returns its
// contents.
func (sc *scanner) str() ([]byte, bool) {
	if !sc.next('"') {
		return nil, false
	}
	for j := sc.i; j < len(sc.b); j++ {
		switch c := sc.b[j]; {
		case c == '"':
			s := sc.b[sc.i:j]
			sc.i = j + 1
			return s, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// boolean reads true or false.
func (sc *scanner) boolean() (v, ok bool) {
	sc.ws()
	switch rest := sc.b[sc.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		sc.i += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		sc.i += 5
		return false, true
	}
	return false, false
}

// members reads the members of an object whose '{' is consumed, through
// its '}': member reads the value of each key.
func (sc *scanner) members(member func(key []byte) bool) bool {
	if sc.next('}') {
		return true
	}
	for {
		key, ok := sc.str()
		if !ok || !sc.next(':') || !member(key) {
			return false
		}
		if sc.next('}') {
			return true
		}
		if !sc.next(',') {
			return false
		}
	}
}

// cases reads the array of cases, appending each to out with its spec
// text; every case has a spec.
func (sc *scanner) cases(out *[]caseSpec) bool {
	if !sc.next('[') {
		return false
	}
	if sc.next(']') {
		return true
	}
	for {
		var cs caseSpec
		named := false
		ok := sc.next('{') && sc.members(func(key []byte) bool {
			switch {
			case string(key) == "spec" && cs.text == nil:
				cs.text = sc.object()
				return cs.text != nil
			case string(key) == "name" && !named:
				named = true
				name, ok := sc.str()
				cs.Name = string(name)
				return ok
			}
			return false
		})
		if !ok || cs.text == nil {
			return false
		}
		*out = append(*out, cs)
		if sc.next(']') {
			return true
		}
		if !sc.next(',') {
			return false
		}
	}
}

// object returns the bytes from the next '{' to the '}' that closes it
// outside strings, or nil.
func (sc *scanner) object() []byte {
	if !sc.next('{') {
		return nil
	}
	start, depth := sc.i-1, 1
	for j := sc.i; j < len(sc.b); j++ {
		switch sc.b[j] {
		case '"':
			for j++; j < len(sc.b) && sc.b[j] != '"'; j++ {
				if sc.b[j] == '\\' {
					j++
				}
			}
		case '{':
			depth++
		case '}':
			if depth--; depth == 0 {
				sc.i = j + 1
				return sc.b[start:sc.i]
			}
		}
	}
	return nil
}
