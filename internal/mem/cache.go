// Package mem models the simulated memory hierarchy of the TaskSim-like
// detailed mode: set-associative write-back caches (private L1, private or
// shared L2, optional shared L3), a line-granularity sharers directory that
// invalidates remote private copies on writes, and a bandwidth-limited DRAM
// channel. Shared levels and DRAM carry occupancy-based queueing, so IPC
// becomes thread-count dependent — the resource contention that TaskPoint's
// resampling triggers (paper Fig 4a) exist to track.
package mem

import "fmt"

// CacheCfg describes one cache level.
type CacheCfg struct {
	// Size is the capacity in bytes.
	Size int
	// Ways is the associativity.
	Ways int
	// Lat is the hit latency in cycles.
	Lat float64
}

func (c CacheCfg) validate(name string, lineSize int) error {
	switch {
	case c.Size <= 0:
		return fmt.Errorf("mem: %s size %d must be positive", name, c.Size)
	case c.Ways <= 0:
		return fmt.Errorf("mem: %s ways %d must be positive", name, c.Ways)
	case c.Lat <= 0:
		return fmt.Errorf("mem: %s latency %v must be positive", name, c.Lat)
	case c.Size%(lineSize*c.Ways) != 0:
		return fmt.Errorf("mem: %s size %d not divisible by ways*line", name, c.Size)
	}
	return nil
}

// Cache is a single set-associative write-back cache with LRU replacement.
// Lines are identified by line number (byte address >> log2(lineSize)).
//
// Each way stores one packed tag word — the line number shifted left by
// two with the state in the low bits — so a way probe is a single load
// and compare. Line numbers occupy at most 58 bits (64-bit byte address
// over 64-byte lines), so the shift cannot overflow. A valid word is never
// zero (its state bits are not), and an invalid way is exactly zero.
//
// Each set keeps its ways in recency order: the most recently used word
// first, the valid words packed at the front and the invalid (zero) words
// trailing them. A hit moves its word to the front; a fill inserts at the
// front and, when the set is full, evicts the last word; an invalidation
// closes the gap it leaves. The order itself is the LRU state, so a probe
// reads one array, checks the MRU way first and stops at the first
// invalid word.
type Cache struct {
	sets   int
	ways   int
	mask   uint64   // sets-1 when sets is a power of two, else 0
	tags   []uint64 // line<<2 | state per way, each set in recency order
	hits   uint64
	misses uint64
}

const (
	lineInvalid uint64 = iota
	lineValid
	lineDirty
	tagStateMask uint64 = 3
)

// NewCache builds a cache from cfg with the given line size.
func NewCache(cfg CacheCfg, lineSize int) (*Cache, error) {
	if err := cfg.validate("cache", lineSize); err != nil {
		return nil, err
	}
	sets := cfg.Size / (lineSize * cfg.Ways)
	c := &Cache{
		sets: sets,
		ways: cfg.Ways,
		tags: make([]uint64, sets*cfg.Ways),
	}
	if sets&(sets-1) == 0 {
		c.mask = uint64(sets - 1)
	}
	return c, nil
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// set returns the ways of line's set, most recently used first.
func (c *Cache) set(line uint64) []uint64 {
	var s int
	if c.mask != 0 {
		s = int(line & c.mask)
	} else {
		s = int(line % uint64(c.sets))
	}
	base := s * c.ways
	return c.tags[base : base+c.ways : base+c.ways]
}

// find probes set for the packed line want. On a hit it returns the way
// holding it; on a miss it returns the number of valid ways, which is the
// first invalid way unless the set is full.
func find(set []uint64, want uint64) (w int, hit bool) {
	for w, t := range set {
		if t == lineInvalid {
			return w, false
		}
		if t&^tagStateMask == want {
			return w, true
		}
	}
	return len(set), false
}

// toFront moves set[w] to the front as t, shifting the more recently used
// ways back by one.
func toFront(set []uint64, w int, t uint64) {
	for ; w > 0; w-- {
		set[w] = set[w-1]
	}
	set[0] = t
}

// Lookup probes for line. On a hit the line becomes the most recently used
// of its set and, if write is set, is marked dirty.
func (c *Cache) Lookup(line uint64, write bool) bool {
	set := c.set(line)
	want := line << 2
	if w, hit := find(set, want); hit {
		t := set[w]
		if write {
			t = want | lineDirty
		}
		toFront(set, w, t)
		c.hits++
		return true
	}
	c.misses++
	return false
}

// Fill inserts line as the most recently used of its set, evicting the
// least recently used line if the set is full. It returns the evicted line
// and whether it was dirty; hadVictim is false if an invalid way was
// available.
func (c *Cache) Fill(line uint64, write bool) (victim uint64, dirty, hadVictim bool) {
	set := c.set(line)
	want := line << 2
	t := want | lineValid
	if write {
		t = want | lineDirty
	}
	w, hit := find(set, want)
	if hit && !write {
		t = set[w] // already present (racing fills): refresh, keep its state
	}
	if w < len(set) {
		toFront(set, w, t)
		return 0, false, false
	}
	last := set[len(set)-1]
	toFront(set, len(set)-1, t)
	return last >> 2, last&tagStateMask == lineDirty, true
}

// Invalidate removes line if present, returning whether it was present and
// whether it was dirty.
func (c *Cache) Invalidate(line uint64) (present, dirty bool) {
	set := c.set(line)
	w, hit := find(set, line<<2)
	if !hit {
		return false, false
	}
	dirty = set[w]&tagStateMask == lineDirty
	// Close the gap: shift the less recently used valid ways forward.
	for ; w+1 < len(set) && set[w+1] != lineInvalid; w++ {
		set[w] = set[w+1]
	}
	set[w] = lineInvalid
	return true, dirty
}

// Contains probes for line without touching recency or statistics.
func (c *Cache) Contains(line uint64) bool {
	_, hit := find(c.set(line), line<<2)
	return hit
}

// Reset invalidates every line and clears hit/miss counters (cold state).
func (c *Cache) Reset() {
	clear(c.tags)
	c.hits, c.misses = 0, 0
}

// Occupancy returns the fraction of valid lines, a warm-up measure.
func (c *Cache) Occupancy() float64 {
	valid := 0
	for _, t := range c.tags {
		if t != lineInvalid {
			valid++
		}
	}
	return float64(valid) / float64(len(c.tags))
}

// Hits returns the number of lookup hits since the last Reset.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses returns the number of lookup misses since the last Reset.
func (c *Cache) Misses() uint64 { return c.misses }
