package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// JobID content-hashes a job's name and spec into its store key. The
// spec's canonical JSON encoding is hashed (encoding/json serialises
// struct fields in declaration order and map keys sorted, so equal specs
// always hash equally). Everything that can change the result must be in
// the name or the spec; nothing else may be, or identical work stops
// deduplicating. The ID is what makes the result store content-addressed:
// any client, any process, any run that derives the same ID is asking for
// the same simulation.
func JobID(job Job) (string, error) {
	spec, err := json.Marshal(job.Spec)
	if err != nil {
		return "", fmt.Errorf("harness: job %s: spec not serialisable: %w", job.Name, err)
	}
	return SpecID(job.Name, spec), nil
}

// SpecID is JobID for a spec already encoded: the hash of name, a NUL
// and the spec's canonical JSON. A caller that holds the encoding (vixd
// interns specs by it) derives the ID without encoding the spec again.
func SpecID(name string, spec []byte) string {
	h := sha256.New()
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write(spec)
	return hex.EncodeToString(h.Sum(nil)[:12])
}
