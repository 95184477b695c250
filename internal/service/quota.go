package service

import "sync"

// quotas meters case admission per client with a token bucket: each
// submitted case costs one token, tokens refill at rate per second up
// to burst. A client that drains its bucket gets 429 with a
// Retry-After hint instead of unbounded queue occupancy. Time comes
// from the injected clock only — the service never reads the wall
// clock, so tests drive quotas deterministically.
//
// Client names come from a header the client sets, so the table prunes
// itself: a bucket that has refilled to burst is the same state as an
// absent one, and such buckets are swept whenever the table reaches
// sweepAt, which then doubles past what is left. The clock must not run
// backwards, or a swept bucket would come back fuller than it was.
type quotas struct {
	mu      sync.Mutex
	rate    float64 // tokens per second; <= 0 disables quotas
	burst   float64 // bucket capacity
	now     func() int64
	buckets map[string]*bucket
	sweepAt int
}

// minSweep is the table size below which no sweep runs.
const minSweep = 64

// bucket is one client's admission state.
type bucket struct {
	tokens float64
	last   int64 // nanos of the last refill
}

// newQuotas builds the quota table. Burst defaults to max(rate, 1) so a
// configured rate always admits at least one case from a fresh bucket.
func newQuotas(rate, burst float64, now func() int64) *quotas {
	if burst <= 0 {
		burst = rate
	}
	if burst < 1 {
		burst = 1
	}
	return &quotas{rate: rate, burst: burst, now: now, buckets: make(map[string]*bucket), sweepAt: minSweep}
}

// level is b's token count refilled up to nowNs.
func (q *quotas) level(b *bucket, nowNs int64) float64 {
	tokens := b.tokens
	if elapsed := float64(nowNs-b.last) / 1e9; elapsed > 0 {
		tokens += elapsed * q.rate
		if tokens > q.burst {
			tokens = q.burst
		}
	}
	return tokens
}

// sweep deletes every bucket that has refilled to burst by nowNs and
// sets the next sweep at twice what is left. Callers hold q.mu.
func (q *quotas) sweep(nowNs int64) {
	for client, b := range q.buckets {
		if q.level(b, nowNs) >= q.burst {
			delete(q.buckets, client)
		}
	}
	q.sweepAt = max(2*len(q.buckets), minSweep)
}

// admit charges the client n tokens. It returns ok, or the number of
// seconds after which retrying the same request can succeed. Requests
// larger than the bucket can never succeed; they are rejected with the
// time a full bucket would take to fill, as a signal to split the
// submission.
func (q *quotas) admit(client string, n int) (ok bool, retryAfter float64) {
	if q.rate <= 0 || n <= 0 {
		return true, 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	nowNs := q.now()
	b := q.buckets[client]
	if b == nil {
		if len(q.buckets) >= q.sweepAt {
			q.sweep(nowNs)
		}
		b = &bucket{tokens: q.burst, last: nowNs}
		q.buckets[client] = b
	}
	b.tokens = q.level(b, nowNs)
	b.last = nowNs
	need := float64(n)
	if b.tokens >= need {
		b.tokens -= need
		return true, 0
	}
	missing := need - b.tokens
	if need > q.burst {
		missing = q.burst
	}
	return false, missing / q.rate
}
