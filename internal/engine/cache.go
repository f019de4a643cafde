package engine

import (
	"sync"
	"sync/atomic"

	"taskpoint/internal/bench"
	"taskpoint/internal/flight"
	"taskpoint/internal/obs"
	"taskpoint/internal/sim"
	"taskpoint/internal/trace"
)

// Process-wide cache metrics, aggregated across every BaselineCache in
// the process; CacheStats carries the per-cache view.
var (
	metricCacheHits      = obs.Default().Counter("engine.baseline.cache.hits")
	metricCacheMisses    = obs.Default().Counter("engine.baseline.cache.misses")
	metricCacheEvictions = obs.Default().Counter("engine.baseline.cache.evictions")
	metricBaselineJoined = obs.Default().Counter("engine.baseline.joined")
)

// progKey identifies a generated program: the same (workload, scale, seed)
// always materialises the identical trace.
type progKey struct {
	workload string
	scale    float64
	seed     uint64
}

// detKey identifies a detailed reference simulation. The noise model of
// the native architecture is seeded from (seed, threads), so the key
// fields pin it too.
type detKey struct {
	progKey
	arch    string
	threads int
}

// BaselineID is the exported identity of one detailed reference
// simulation — the fields a persistent tier needs to derive its content
// address. Arch is the canonical architecture name.
type BaselineID struct {
	Workload string
	Scale    float64
	Seed     uint64
	Arch     string
	Threads  int
}

// BaselineTier is a persistent second tier under the in-memory
// BaselineCache — internal/store's content-addressed disk store
// implements it. The cache reads through it on a memory miss and writes
// freshly computed references behind it asynchronously, so every Engine
// sharing the cache also shares the durable layer. Implementations must
// be safe for concurrent use; a load failure of any kind is reported as
// a plain miss (ok=false) so the engine recomputes.
type BaselineTier interface {
	LoadBaseline(id BaselineID) (*sim.Result, bool)
	SaveBaseline(id BaselineID, res *sim.Result)
}

func (k detKey) id() BaselineID {
	return BaselineID{Workload: k.workload, Scale: k.scale, Seed: k.seed, Arch: k.arch, Threads: k.threads}
}

// BaselineCache caches generated programs and detailed reference results
// across experiment cells, keyed by their full identity, so the expensive
// cycle-level baseline of (workload, arch, threads, scale, seed) is paid
// once no matter how many policies, figures or campaign cells sweep over
// it. One cache can back any number of Engines; it is safe for concurrent
// use.
//
// A lookup goes memory → tier → compute, the last two inside the key's
// single flight: cells that need a value another cell is producing wait
// for it instead of producing it again, so each value is computed once.
type BaselineCache struct {
	mu    sync.Mutex
	progs map[progKey]*trace.Program
	dets  map[detKey]*sim.Result

	progFlights flight.Group[progKey, *trace.Program]
	detFlights  flight.Group[detKey, *sim.Result]

	// tier is the optional persistent layer under the in-memory maps:
	// read-through on a memory miss, write-behind on a fresh compute.
	// pending tracks in-flight write-behind saves for Sync.
	tier    BaselineTier
	pending sync.WaitGroup

	// Lookup tallies for the detailed-reference map (the expensive slot):
	// one hit, join or miss per logical cell lookup, one eviction per
	// detailed entry DropWorkload deletes.
	hits, joined, misses, evictions atomic.Int64
}

// SetTier installs the persistent tier. Call it before the cache is
// shared with running engines; a nil tier keeps the cache memory-only.
func (c *BaselineCache) SetTier(t BaselineTier) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tier = t
}

// Sync blocks until every write-behind save issued so far has reached
// the tier. Callers that must observe their results durably — a server
// shutting down, a test asserting on-disk state — call it; the hot path
// never does.
func (c *BaselineCache) Sync() { c.pending.Wait() }

// CacheStats is a point-in-time view of a cache's detailed-reference
// behaviour — the numbers the sweep end-of-run summary prints,
// since baseline computation dominates campaign cost.
type CacheStats struct {
	// Hits and Misses tally detailed-reference lookups by outcome: a hit
	// found the reference in memory or the tier, or joined its flight; a
	// miss computed it.
	Hits, Misses int64
	// Joined counts the hits that waited on another cell's computation.
	Joined int64
	// Evictions counts detailed entries dropped by DropWorkload.
	Evictions int64
	// Entries is the current number of cached detailed references.
	Entries int
}

// Stats returns the cache's current lookup tallies.
func (c *BaselineCache) Stats() CacheStats {
	c.mu.Lock()
	entries := len(c.dets)
	c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Joined:    c.joined.Load(),
		Evictions: c.evictions.Load(),
		Entries:   entries,
	}
}

// NewBaselineCache returns an empty cache.
func NewBaselineCache() *BaselineCache {
	return &BaselineCache{
		progs: make(map[progKey]*trace.Program),
		dets:  make(map[detKey]*sim.Result),
	}
}

// Program returns the (cached) generated program of a workload at the
// given scale and seed.
func (c *BaselineCache) Program(workload string, scale float64, seed uint64) (*trace.Program, error) {
	return c.program(progKey{workload: workload, scale: scale, seed: seed}, flight.Block(nil, nil))
}

// program returns key's program from memory, or builds it in key's
// flight; wait is how the caller waits on another caller's build.
func (c *BaselineCache) program(key progKey, wait func(<-chan struct{}) error) (*trace.Program, error) {
	if p := load(c, c.progs, key); p != nil {
		return p, nil
	}
	p, _, err := c.progFlights.Do(key, wait, func() (*trace.Program, error) {
		// An earlier flight may have landed between the miss and this one.
		if p := load(c, c.progs, key); p != nil {
			return p, nil
		}
		spec, err := bench.ByName(key.workload)
		if err != nil {
			return nil, err
		}
		p, err := spec.Build(key.scale, key.seed)
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		c.progs[key] = p
		c.mu.Unlock()
		return p, nil
	})
	return p, err
}

// lookup is how a detailed-reference lookup was served.
type lookup int

const (
	lookupHit      lookup = iota // memory or tier
	lookupJoined                 // waited on another caller's flight
	lookupComputed               // this caller computed it
)

// detailed returns key's reference: from memory, else in key's flight
// from memory again (an earlier flight may have landed), the tier, or
// compute — a tier load is adopted without a write-behind echo; a fresh
// result is written behind to the tier asynchronously (Sync waits for
// it). wait is how the caller waits on another caller's flight.
func (c *BaselineCache) detailed(key detKey, wait func(<-chan struct{}) error, compute func() (*sim.Result, error)) (*sim.Result, lookup, error) {
	if res := load(c, c.dets, key); res != nil {
		c.noteHit()
		return res, lookupHit, nil
	}
	how := lookupHit
	res, joined, err := c.detFlights.Do(key, wait, func() (*sim.Result, error) {
		if res := load(c, c.dets, key); res != nil {
			return res, nil
		}
		c.mu.Lock()
		tier := c.tier
		c.mu.Unlock()
		res, ok := (*sim.Result)(nil), false
		if tier != nil {
			res, ok = tier.LoadBaseline(key.id())
		}
		if !ok {
			how = lookupComputed
			c.misses.Add(1)
			metricCacheMisses.Inc()
			var err error
			if res, err = compute(); err != nil {
				return nil, err
			}
			if tier != nil {
				c.pending.Add(1)
				go func() {
					defer c.pending.Done()
					tier.SaveBaseline(key.id(), res)
				}()
			}
		}
		c.mu.Lock()
		c.dets[key] = res
		c.mu.Unlock()
		return res, nil
	})
	switch {
	case err != nil:
		return nil, how, err
	case joined:
		how = lookupJoined
		c.joined.Add(1)
		metricBaselineJoined.Inc()
	}
	if how != lookupComputed {
		c.noteHit()
	}
	return res, how, nil
}

func (c *BaselineCache) noteHit() { c.hits.Add(1); metricCacheHits.Inc() }

// load reads m[key] under the cache's lock.
func load[K comparable, V any](c *BaselineCache, m map[K]V, key K) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	return m[key]
}

// DropWorkload evicts every cached program and detailed reference of the
// named workload, whatever its scale, seed, architecture or thread count.
// Long-running drivers over unbounded workload streams — the estimator
// fuzzer draws a fresh scenario every round, forever — call it once a
// workload's cells are done, so the cache stays bounded by the working set
// instead of growing with the stream's history.
func (c *BaselineCache) DropWorkload(workload string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := range c.progs {
		if k.workload == workload {
			delete(c.progs, k)
		}
	}
	for k := range c.dets {
		if k.workload == workload {
			delete(c.dets, k)
			c.evictions.Add(1)
			metricCacheEvictions.Inc()
		}
	}
}
