package serve

import (
	"container/list"
	"context"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/telemetry"
)

// dedup.go is pyserve's exactly-once layer: a bounded, TTL'd,
// single-flight result cache keyed by client-supplied idempotency keys.
//
// The contract: for one key, the program body executes at most once per
// TTL window on this backend. The first request under a key executes and
// records its result; every replay within the TTL — a router re-routing
// a mid-flight network failure, a client retrying a timed-out call —
// returns the recorded RunResultV1 without touching the scheduler.
// Concurrent replays single-flight: one executes, the rest wait on it
// and absorb its result, so even a replay racing the original cannot
// double-execute.
//
// Overhead discipline (SlipCover's): requests without a key never touch
// the cache — one empty-string compare and the whole subsystem
// disappears. Keyed requests pay one mutex'd map lookup per consult,
// off the scheduler's critical path; nothing here runs inside a job.
// The p50 cost of the consult is pinned by the router-dedup-overhead
// benchgate entry.

// dedupDefaults.
const (
	defaultDedupTTL = 5 * time.Minute
	defaultDedupCap = 4096
	// dedupWaitRetries bounds how many times a waiter re-consults after
	// the executor it waited on resolved uncacheably (shed): each retry
	// either finds a recorded result or becomes the executor itself.
	dedupWaitRetries = 4
)

// dedupEntry is one key's lifecycle: pending while its executor runs,
// then either recorded (res holds the result) or deleted (uncacheable
// outcome). done is closed exactly once, at resolution.
type dedupEntry struct {
	key     string
	done    chan struct{}
	res     *api.RunResultV1 // nil until recorded
	execs   int              // times the body ran under this key (0 or 1)
	expires time.Time        // zero while pending
	elem    *list.Element    // position in the eviction order
}

// dedupCache is the bounded single-flight result cache.
type dedupCache struct {
	ttl time.Duration
	cap int

	mu      sync.Mutex
	entries map[string]*dedupEntry
	// order lists resolved entries oldest-first (uniform TTL makes
	// insertion order expiry order); pending entries are not listed and
	// are never evicted.
	order *list.List

	// Lifetime counters, mirrored into the registry via the c* counters
	// below (nil-safe; left nil when the server has no registry).
	hits, recorded, evictions, expirations uint64
	maxExecs                               int

	cHits, cRecorded, cEvictions *telemetry.Counter
}

func newDedupCache(ttl time.Duration, capacity int) *dedupCache {
	if ttl <= 0 {
		ttl = defaultDedupTTL
	}
	if capacity <= 0 {
		capacity = defaultDedupCap
	}
	return &dedupCache{
		ttl:     ttl,
		cap:     capacity,
		entries: make(map[string]*dedupEntry),
		order:   list.New(),
	}
}

// consultVerdict is what one consult decided.
type consultVerdict int

const (
	// dedupExecute: the caller is the executor — run the job, then call
	// resolve with the result.
	dedupExecute consultVerdict = iota
	// dedupHit: a recorded result was returned; nothing executes.
	dedupHit
	// dedupWait: another request holds the key; wait on entry.done and
	// consult again.
	dedupWait
	// dedupBypass: the cache refused the key (capacity exhausted by
	// pending entries); execute without recording. Correctness degrades
	// to at-least-once for this key only, never to a wrong answer.
	dedupBypass
)

// consult looks the key up and claims it when absent. Exactly one
// concurrent caller per key gets dedupExecute; the entry it must resolve
// is returned alongside.
func (c *dedupCache) consult(key string, now time.Time) (consultVerdict, *dedupEntry, *api.RunResultV1) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked(now)
	if e, ok := c.entries[key]; ok {
		if e.res != nil {
			c.hits++
			c.cHits.Inc()
			res := *e.res // copy: callers restamp the request id
			return dedupHit, e, &res
		}
		return dedupWait, e, nil
	}
	if len(c.entries) >= c.cap && !c.evictOneLocked() {
		return dedupBypass, nil, nil
	}
	e := &dedupEntry{key: key, done: make(chan struct{})}
	c.entries[key] = e
	return dedupExecute, e, nil
}

// resolve completes an entry claimed by consult. Executed outcomes are
// recorded for the TTL; uncacheable ones (shed — the body never ran)
// delete the entry so the next replay executes. Waiters are released
// either way.
func (c *dedupCache) resolve(e *dedupEntry, res *api.RunResultV1, cacheable bool, now time.Time) {
	c.mu.Lock()
	if cacheable {
		stored := *res
		e.res = &stored
		e.execs = res.Executions
		e.expires = now.Add(c.ttl)
		e.elem = c.order.PushBack(e)
		c.recorded++
		c.cRecorded.Inc()
		if e.execs > c.maxExecs {
			c.maxExecs = e.execs
		}
	} else {
		delete(c.entries, e.key)
	}
	c.mu.Unlock()
	close(e.done)
}

// wait blocks until e resolves or ctx ends; reports whether e resolved.
func (c *dedupCache) wait(ctx context.Context, e *dedupEntry) bool {
	select {
	case <-e.done:
		return true
	case <-ctx.Done():
		return false
	}
}

// sweepLocked drops entries whose TTL elapsed, oldest first.
func (c *dedupCache) sweepLocked(now time.Time) {
	for {
		front := c.order.Front()
		if front == nil {
			return
		}
		e := front.Value.(*dedupEntry)
		if e.expires.After(now) {
			return
		}
		c.order.Remove(front)
		delete(c.entries, e.key)
		c.expirations++
	}
}

// evictOneLocked drops the oldest resolved entry to make room; false
// means every entry is pending (nothing evictable).
func (c *dedupCache) evictOneLocked() bool {
	front := c.order.Front()
	if front == nil {
		return false
	}
	e := front.Value.(*dedupEntry)
	c.order.Remove(front)
	delete(c.entries, e.key)
	c.evictions++
	c.cEvictions.Inc()
	return true
}

// DedupStats is a point-in-time view of the dedup cache, used by the
// chaos soak's oracle and the admin surface.
type DedupStats struct {
	// Hits counts replays absorbed by a recorded result.
	Hits uint64 `json:"hits"`
	// Recorded counts first executions whose results were cached.
	Recorded uint64 `json:"recorded"`
	// Evictions counts capacity evictions; Expirations TTL sweeps.
	Evictions   uint64 `json:"evictions"`
	Expirations uint64 `json:"expirations"`
	// Entries is the current population (pending included).
	Entries int `json:"entries"`
	// MaxExecutions is the largest execution-count stamp ever recorded
	// under one key. The exactly-once invariant is MaxExecutions <= 1;
	// the byte-chaos soak asserts it.
	MaxExecutions int `json:"maxExecutions"`
}

func (c *dedupCache) stats() DedupStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return DedupStats{
		Hits:          c.hits,
		Recorded:      c.recorded,
		Evictions:     c.evictions,
		Expirations:   c.expirations,
		Entries:       len(c.entries),
		MaxExecutions: c.maxExecs,
	}
}
