package campaign

import (
	"bytes"
	"encoding/json"
	"sync"

	"repro/internal/scenario"
)

// Cache is the campaign layer's point table: one record per canonical
// scenario hash, shared by every job that names the hash. A record holds
// the point in the form it is served and journaled in — its canonical
// params JSON (the bytes the hash was computed over) and its cached
// outcome's canonical JSON — plus the verdict of its spot check.
// Outcomes are deterministic functions of the hash, so a hit is always
// exact.
//
// Records are shared, never copied: every job's row for a hash points at
// the one record, and every view of the row at the record's bytes, so
// neither may be mutated once stored.
// All methods are safe for concurrent use and on a nil receiver (a nil
// cache never hits, never stores and shares nothing between runs).
type Cache struct {
	mu       sync.Mutex
	m        map[string]*record
	outcomes int // records holding an outcome
}

// record is one canonical point's shared state. Fields are written under
// Cache.mu, each at most once: a value once set is never replaced, so a
// row that saw a field set may read it without the lock.
type record struct {
	hash  string
	model string
	// params is the canonical params JSON; nil until a worker of a job
	// naming the hash fills it (an outcome can arrive first, from the
	// journal or a profiling twin).
	params []byte
	// out is the cached outcome; out.js is nil until one is stored.
	out canonOutcome
	// checked marks a kept spot-check verdict; diff is its first
	// difference ("" = traces identical). A check that errored is not
	// kept.
	checked bool
	diff    string
}

// canonOutcome is an outcome in its canonical JSON form, with the two
// fields the aggregate sums kept beside it so settling a job decodes
// nothing.
type canonOutcome struct {
	js          []byte
	simEndNS    int64
	ctxSwitches uint64
}

// newCanonOutcome renders out in one right-sized allocation.
func newCanonOutcome(out *scenario.Outcome) canonOutcome {
	var stack [512]byte
	return canonOutcome{
		js:          bytes.Clone(out.AppendJSON(stack[:0])),
		simEndNS:    out.SimEndNS,
		ctxSwitches: out.CtxSwitches,
	}
}

// canonParams renders p's canonical JSON in one right-sized allocation.
func canonParams(p scenario.Params) []byte {
	var stack [256]byte
	js, _ := p.AppendJSON(stack[:0]) // p was hashed, so it encodes
	return bytes.Clone(js)
}

// NewCache returns an empty cache.
func NewCache() *Cache { return &Cache{m: map[string]*record{}} }

// Get returns the canonical JSON of the outcome cached under hash. The
// bytes are the shared record's: read them only.
func (c *Cache) Get(hash string) (json.RawMessage, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if r := c.m[hash]; r != nil && r.out.js != nil {
		return r.out.js, true
	}
	return nil, false
}

// Put stores the outcome under hash. An outcome already cached for the
// hash is kept: equal hashes compute equal outcomes.
func (c *Cache) Put(hash string, out scenario.Outcome) {
	if c == nil {
		return
	}
	co := newCanonOutcome(&out)
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.m[hash]
	if r == nil {
		r = &record{hash: hash}
		c.m[hash] = r
	}
	c.keepLocked(r, co)
}

// Len returns the number of cached outcomes.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.outcomes
}

// intern returns each point's record, creating the missing ones; every
// job naming a hash shares the one record. A nil cache gives the run
// private records, still one per hash. Params are left to fillParams,
// off the submission path.
func (c *Cache) intern(points []scenario.Point) []*record {
	recs := make([]*record, len(points))
	var m map[string]*record
	if c != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
		m = c.m
	} else {
		m = map[string]*record{}
	}
	for i, p := range points {
		r := m[p.Hash]
		if r == nil {
			r = &record{hash: p.Hash}
			m[p.Hash] = r
		}
		if r.model == "" {
			r.model = p.Model
		}
		recs[i] = r
	}
	return recs
}

// fillParams gives r its canonical params JSON unless it has them. A
// job's worker calls it first thing for each of its canonical points,
// so every row of the record is published after the bytes are set.
func (c *Cache) fillParams(r *record, p scenario.Params) {
	if c == nil {
		if r.params == nil {
			r.params = canonParams(p)
		}
		return
	}
	c.mu.Lock()
	has := r.params != nil
	c.mu.Unlock()
	if has {
		return
	}
	js := canonParams(p)
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.params == nil {
		r.params = js
	}
}

// hit reports whether r holds a cached outcome.
func (c *Cache) hit(r *record) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return r.out.js != nil
}

// share stores out as r's outcome, which every job shares from now on:
// an outcome already cached is kept, since an equal hash computes an
// equal outcome. A nil cache's private record takes it unlocked, from
// the one worker that runs its hash.
func (c *Cache) share(r *record, out *scenario.Outcome) {
	co := newCanonOutcome(out)
	if c == nil {
		r.out = co
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.keepLocked(r, co)
}

// keepLocked stores co as r's outcome unless r has one; c.mu must be
// held.
func (c *Cache) keepLocked(r *record, co canonOutcome) {
	if r.out.js == nil {
		r.out = co
		c.outcomes++
	}
}

// verdict returns the spot-check verdict kept for r.
func (c *Cache) verdict(r *record) (diff string, ok bool) {
	if c == nil {
		return "", false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return r.diff, r.checked
}

// keepVerdict stores a completed spot check's verdict beside r's cached
// outcome; a record with no cached outcome keeps none.
func (c *Cache) keepVerdict(r *record, diff string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.out.js != nil && !r.checked {
		r.checked, r.diff = true, diff
	}
}
