package campaign

import (
	"sync"

	"repro/internal/scenario"
)

// Cache is the campaign layer's point table: one record per canonical
// scenario hash, shared by every job that names the hash. A record holds
// the point's interned Params map, its cached Outcome and the verdict of
// its spot check. Outcomes are deterministic functions of the hash, so a
// hit is always exact.
//
// Records are shared, never copied: every job's row for a hash points at
// the same Outcome and the same Params map, so neither may be mutated
// once stored (code that needs different params clones them first).
// All methods are safe for concurrent use and on a nil receiver (a nil
// cache never hits, never stores and interns nothing).
type Cache struct {
	mu       sync.Mutex
	m        map[string]*record
	outcomes int // records holding an outcome
}

// record is one canonical point's shared state. Fields are written under
// Cache.mu, each at most once: a value once set is never replaced.
type record struct {
	hash   string
	params scenario.Params
	out    *scenario.Outcome
	// checked marks a kept spot-check verdict; diff is its first
	// difference ("" = traces identical). A check that errored is not
	// kept.
	checked bool
	diff    string
}

// NewCache returns an empty cache.
func NewCache() *Cache { return &Cache{m: map[string]*record{}} }

// Get fetches the outcome cached under hash. The struct is a copy, but
// its Checksums and Counters are the shared record's: read them only.
func (c *Cache) Get(hash string) (scenario.Outcome, bool) {
	out, ok := c.outcome(hash)
	if !ok {
		return scenario.Outcome{}, false
	}
	return *out, true
}

// Put stores the outcome under hash. An outcome already cached for the
// hash is kept: equal hashes compute equal outcomes.
func (c *Cache) Put(hash string, out scenario.Outcome) { c.share(hash, &out) }

// Len returns the number of cached outcomes.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.outcomes
}

// recordLocked returns hash's record, creating it; c.mu must be held.
func (c *Cache) recordLocked(hash string) *record {
	r := c.m[hash]
	if r == nil {
		r = &record{hash: hash}
		c.m[hash] = r
	}
	return r
}

// outcome returns the shared outcome cached under hash.
func (c *Cache) outcome(hash string) (*scenario.Outcome, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if r := c.m[hash]; r != nil && r.out != nil {
		return r.out, true
	}
	return nil, false
}

// share caches out under hash and returns the outcome every job shares
// from now on: an outcome already cached is kept, since an equal hash
// computes an equal outcome.
func (c *Cache) share(hash string, out *scenario.Outcome) *scenario.Outcome {
	if c == nil {
		return out
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.recordLocked(hash)
	if r.out == nil {
		r.out = out
		c.outcomes++
	}
	return r.out
}

// intern returns the canonical hash string and Params map of the point
// hashed hash, adopting the given ones the first time the hash is seen.
// Equal hashes mean equal canonical JSON, so the shared map renders the
// same document bytes as the one it replaces.
func (c *Cache) intern(hash string, params scenario.Params) (string, scenario.Params) {
	if c == nil {
		return hash, params
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.recordLocked(hash)
	if r.params == nil {
		r.params = params
	}
	return r.hash, r.params
}

// verdict returns the spot-check verdict kept for hash.
func (c *Cache) verdict(hash string) (diff string, ok bool) {
	if c == nil {
		return "", false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if r := c.m[hash]; r != nil && r.checked {
		return r.diff, true
	}
	return "", false
}

// keepVerdict stores a completed spot check's verdict beside hash's
// cached outcome; a hash with no cached outcome keeps none.
func (c *Cache) keepVerdict(hash, diff string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if r := c.m[hash]; r != nil && r.out != nil && !r.checked {
		r.checked, r.diff = true, diff
	}
}
