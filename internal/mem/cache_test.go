package mem

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func mustCache(t *testing.T, size, ways int) *Cache {
	t.Helper()
	c, err := NewCache(CacheCfg{Size: size, Ways: ways, Lat: 1}, 64)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewCacheValidation(t *testing.T) {
	bad := []CacheCfg{
		{Size: 0, Ways: 1, Lat: 1},
		{Size: 1024, Ways: 0, Lat: 1},
		{Size: 1024, Ways: 2, Lat: 0},
		{Size: 1000, Ways: 2, Lat: 1}, // not divisible by ways*line
	}
	for _, cfg := range bad {
		if _, err := NewCache(cfg, 64); err == nil {
			t.Errorf("config %+v should be rejected", cfg)
		}
	}
}

func TestCacheGeometry(t *testing.T) {
	c := mustCache(t, 32*1024, 8)
	if c.Sets() != 64 || c.Ways() != 8 {
		t.Errorf("geometry = %dx%d, want 64x8", c.Sets(), c.Ways())
	}
	// Non-power-of-two set count must still work (modulo indexing).
	c2, err := NewCache(CacheCfg{Size: 3 * 64 * 2, Ways: 2, Lat: 1}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Sets() != 3 {
		t.Errorf("sets = %d, want 3", c2.Sets())
	}
	c2.Fill(7, false)
	if !c2.Contains(7) {
		t.Error("fill/lookup broken for non-pow2 sets")
	}
}

func TestHitAfterFill(t *testing.T) {
	c := mustCache(t, 4096, 4)
	if c.Lookup(10, false) {
		t.Error("cold cache should miss")
	}
	c.Fill(10, false)
	if !c.Lookup(10, false) {
		t.Error("should hit after fill")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", c.Hits(), c.Misses())
	}
}

func TestLRUEviction(t *testing.T) {
	// 2 ways, 1 set: third distinct line evicts the least recently used.
	c, err := NewCache(CacheCfg{Size: 2 * 64, Ways: 2, Lat: 1}, 64)
	if err != nil {
		t.Fatal(err)
	}
	c.Fill(1, false)
	c.Fill(2, false)
	c.Lookup(1, false) // 1 is now MRU
	victim, _, had := c.Fill(3, false)
	if !had || victim != 2 {
		t.Errorf("victim = %d (had=%v), want 2", victim, had)
	}
	if !c.Contains(1) || !c.Contains(3) || c.Contains(2) {
		t.Error("LRU state wrong after eviction")
	}
}

func TestDirtyEviction(t *testing.T) {
	c, err := NewCache(CacheCfg{Size: 1 * 64, Ways: 1, Lat: 1}, 64)
	if err != nil {
		t.Fatal(err)
	}
	c.Fill(1, true) // dirty line
	victim, dirty, had := c.Fill(2, false)
	if !had || victim != 1 || !dirty {
		t.Errorf("eviction = (%d, dirty=%v, had=%v), want (1, true, true)", victim, dirty, had)
	}
}

func TestWriteMarksDirtyOnHit(t *testing.T) {
	c, err := NewCache(CacheCfg{Size: 1 * 64, Ways: 1, Lat: 1}, 64)
	if err != nil {
		t.Fatal(err)
	}
	c.Fill(1, false)
	c.Lookup(1, true) // write hit marks dirty
	_, dirty, _ := c.Fill(2, false)
	if !dirty {
		t.Error("write hit should mark line dirty")
	}
}

func TestFillIdempotentWhenPresent(t *testing.T) {
	c := mustCache(t, 4096, 4)
	c.Fill(5, false)
	victim, dirty, had := c.Fill(5, true)
	if had || victim != 0 || dirty {
		t.Errorf("refill of present line reported eviction (%d,%v,%v)", victim, dirty, had)
	}
	// The duplicate fill upgraded it to dirty.
	cSmall, _ := NewCache(CacheCfg{Size: 64, Ways: 1, Lat: 1}, 64)
	cSmall.Fill(1, false)
	cSmall.Fill(1, true)
	_, d, _ := cSmall.Fill(2, false)
	if !d {
		t.Error("refill with write should mark dirty")
	}
}

func TestInvalidate(t *testing.T) {
	c := mustCache(t, 4096, 4)
	c.Fill(9, true)
	present, dirty := c.Invalidate(9)
	if !present || !dirty {
		t.Errorf("Invalidate = (%v,%v), want (true,true)", present, dirty)
	}
	if c.Contains(9) {
		t.Error("line still present after invalidation")
	}
	present, _ = c.Invalidate(9)
	if present {
		t.Error("second invalidation should report absent")
	}
}

func TestResetAndOccupancy(t *testing.T) {
	c := mustCache(t, 4096, 4)
	if c.Occupancy() != 0 {
		t.Error("new cache should be empty")
	}
	for i := uint64(0); i < 32; i++ {
		c.Fill(i, false)
	}
	if occ := c.Occupancy(); occ != 0.5 {
		t.Errorf("occupancy = %v, want 0.5 (32 of 64 lines)", occ)
	}
	c.Reset()
	if c.Occupancy() != 0 || c.Hits() != 0 || c.Misses() != 0 {
		t.Error("reset did not clear state")
	}
}

// Property: the cache never reports a hit for a line it was never given,
// and always hits a line filled and not since evicted or invalidated.
func TestQuickCacheConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 99))
		c, err := NewCache(CacheCfg{Size: 8 * 64, Ways: 2, Lat: 1}, 64)
		if err != nil {
			return false
		}
		present := map[uint64]bool{}
		for op := 0; op < 500; op++ {
			line := uint64(r.IntN(40))
			switch r.IntN(3) {
			case 0: // lookup
				if c.Lookup(line, false) != present[line] {
					return false
				}
				if present[line] {
					// hit refreshed recency; model agrees already
					continue
				}
			case 1: // fill
				victim, _, had := c.Fill(line, r.IntN(2) == 0)
				present[line] = true
				if had {
					delete(present, victim)
				}
			case 2: // invalidate
				was, _ := c.Invalidate(line)
				if was != present[line] {
					return false
				}
				delete(present, line)
			}
		}
		// Every tracked line must be found by Contains.
		for line, p := range present {
			if p != c.Contains(line) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// cacheGeometries are the differential test's shapes: the associativities
// of the modelled levels (1 and 2 for edge cases, 8, 16 and 20) crossed
// with power-of-two set counts (masked indexing) and other set counts
// (modulo indexing; one set is the fully associative corner).
var cacheGeometries = func() []CacheCfg {
	var out []CacheCfg
	for _, ways := range []int{1, 2, 8, 16, 20} {
		for _, sets := range []int{1, 3, 4, 12, 64} {
			out = append(out, CacheCfg{Size: sets * ways * 64, Ways: ways, Lat: 1})
		}
	}
	return out
}()

// TestCacheMatchesStampLRU drives the recency-ordered Cache and the
// stamp-LRU oracle with the same seeded operation sequences and compares
// every return value, the hit and miss counters and the occupancy after
// every operation. Lines are drawn from a pool about three times the
// capacity, so sets fill, evict and refill, plus line 0 and lines near the
// 58-bit top, whose packed words sit at the edges of the tag encoding.
func TestCacheMatchesStampLRU(t *testing.T) {
	for _, cfg := range cacheGeometries {
		for seed := uint64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("ways%d/sets%d/seed%d", cfg.Ways, cfg.Size/(64*cfg.Ways), seed)
			t.Run(name, func(t *testing.T) {
				got, err := NewCache(cfg, 64)
				if err != nil {
					t.Fatal(err)
				}
				want := newStampCache(cfg, 64)
				r := rand.New(rand.NewPCG(seed, uint64(cfg.Size)))
				pool := uint64(3 * cfg.Size / 64)
				line := func() uint64 {
					switch r.IntN(16) {
					case 0:
						return 0
					case 1:
						return 1<<58 - 1 - uint64(r.IntN(8))
					}
					return uint64(r.Int64N(int64(pool)))
				}
				for op := 0; op < 4000; op++ {
					l, write := line(), r.IntN(3) == 0
					var desc string
					var g, w [3]any
					switch k := r.IntN(100); {
					case k < 40:
						desc = fmt.Sprintf("Lookup(%d, %v)", l, write)
						g[0], w[0] = got.Lookup(l, write), want.Lookup(l, write)
					case k < 75:
						desc = fmt.Sprintf("Fill(%d, %v)", l, write)
						gv, gd, gh := got.Fill(l, write)
						wv, wd, wh := want.Fill(l, write)
						g, w = [3]any{gv, gd, gh}, [3]any{wv, wd, wh}
					case k < 90:
						desc = fmt.Sprintf("Invalidate(%d)", l)
						gp, gd := got.Invalidate(l)
						wp, wd := want.Invalidate(l)
						g[0], g[1], w[0], w[1] = gp, gd, wp, wd
					case k < 99:
						desc = fmt.Sprintf("Contains(%d)", l)
						g[0], w[0] = got.Contains(l), want.Contains(l)
					default:
						desc = "Reset()"
						got.Reset()
						want.Reset()
					}
					if g != w {
						t.Fatalf("op %d %s = %v, oracle %v", op, desc, g, w)
					}
					if got.Hits() != want.hits || got.Misses() != want.misses {
						t.Fatalf("op %d %s: hits/misses %d/%d, oracle %d/%d",
							op, desc, got.Hits(), got.Misses(), want.hits, want.misses)
					}
					if got.Occupancy() != want.Occupancy() {
						t.Fatalf("op %d %s: occupancy %v, oracle %v", op, desc, got.Occupancy(), want.Occupancy())
					}
				}
			})
		}
	}
}

// stampCache is the stamp-LRU cache that the recency-ordered Cache
// replaced, kept verbatim as the differential oracle: every way carries a
// last-use stamp from a per-cache clock, Fill takes the first invalid way
// or else the valid way with the smallest stamp, and Invalidate leaves a
// hole in place. Identical outcomes on every operation sequence are what
// makes the replacement a pure speed change.
type stampCache struct {
	sets   int
	ways   int
	mask   uint64   // sets-1 when sets is a power of two, else 0
	tags   []uint64 // line<<2 | state per way
	lru    []uint64
	clock  uint64
	hits   uint64
	misses uint64
}

func (c *stampCache) setOf(line uint64) int {
	if c.mask != 0 {
		return int(line & c.mask)
	}
	return int(line % uint64(c.sets))
}

// Lookup probes for line. On a hit the line's recency is updated and, if
// write is set, the line is marked dirty.
func (c *stampCache) Lookup(line uint64, write bool) bool {
	base := c.setOf(line) * c.ways
	want := line << 2
	for w := 0; w < c.ways; w++ {
		i := base + w
		if t := c.tags[i]; t&^tagStateMask == want && t&tagStateMask != lineInvalid {
			c.clock++
			c.lru[i] = c.clock
			if write {
				c.tags[i] = want | lineDirty
			}
			c.hits++
			return true
		}
	}
	c.misses++
	return false
}

// Fill inserts line, evicting the LRU victim of its set if necessary.
// It returns the evicted line and whether it was dirty; hadVictim is false
// if an invalid way was available.
func (c *stampCache) Fill(line uint64, write bool) (victim uint64, dirty, hadVictim bool) {
	base := c.setOf(line) * c.ways
	want := line << 2
	// Track the victim candidate in registers: the first invalid way if
	// any, otherwise the least-recently-used valid way.
	vi := -1
	viTag := lineInvalid
	var viLru uint64
	for w := 0; w < c.ways; w++ {
		i := base + w
		t := c.tags[i]
		if t&tagStateMask == lineInvalid {
			if viTag&tagStateMask != lineInvalid || vi == -1 {
				vi, viTag = i, t
			}
			continue
		}
		if t&^tagStateMask == want {
			// Already present (racing fills); refresh instead.
			c.clock++
			c.lru[i] = c.clock
			if write {
				c.tags[i] = want | lineDirty
			}
			return 0, false, false
		}
		if viTag&tagStateMask == lineInvalid && vi != -1 {
			continue
		}
		if l := c.lru[i]; vi == -1 || l < viLru {
			vi, viTag, viLru = i, t, l
		}
	}
	if viTag&tagStateMask != lineInvalid {
		victim = viTag >> 2
		dirty = viTag&tagStateMask == lineDirty
		hadVictim = true
	}
	c.clock++
	c.lru[vi] = c.clock
	if write {
		c.tags[vi] = want | lineDirty
	} else {
		c.tags[vi] = want | lineValid
	}
	return victim, dirty, hadVictim
}

// Invalidate removes line if present, returning whether it was present and
// whether it was dirty.
func (c *stampCache) Invalidate(line uint64) (present, dirty bool) {
	base := c.setOf(line) * c.ways
	want := line << 2
	for w := 0; w < c.ways; w++ {
		i := base + w
		if t := c.tags[i]; t&^tagStateMask == want && t&tagStateMask != lineInvalid {
			dirty = t&tagStateMask == lineDirty
			c.tags[i] = lineInvalid
			return true, dirty
		}
	}
	return false, false
}

// Contains probes for line without touching recency or statistics.
func (c *stampCache) Contains(line uint64) bool {
	base := c.setOf(line) * c.ways
	want := line << 2
	for w := 0; w < c.ways; w++ {
		if t := c.tags[base+w]; t&^tagStateMask == want && t&tagStateMask != lineInvalid {
			return true
		}
	}
	return false
}

// Reset invalidates every line and clears hit/miss counters (cold state).
func (c *stampCache) Reset() {
	clear(c.tags)
	c.hits, c.misses = 0, 0
	c.clock = 0
}

// Occupancy returns the fraction of valid lines, a warm-up measure.
func (c *stampCache) Occupancy() float64 {
	valid := 0
	for _, t := range c.tags {
		if t&tagStateMask != lineInvalid {
			valid++
		}
	}
	return float64(valid) / float64(len(c.tags))
}

func newStampCache(cfg CacheCfg, lineSize int) *stampCache {
	sets := cfg.Size / (lineSize * cfg.Ways)
	c := &stampCache{
		sets: sets,
		ways: cfg.Ways,
		tags: make([]uint64, sets*cfg.Ways),
		lru:  make([]uint64, sets*cfg.Ways),
	}
	if sets&(sets-1) == 0 {
		c.mask = uint64(sets - 1)
	}
	return c
}
