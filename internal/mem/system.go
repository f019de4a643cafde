package mem

import (
	"fmt"
	"math"
	"math/bits"
)

// Config describes a full memory hierarchy. The paper's Table II
// configurations are provided by the sim package.
type Config struct {
	// LineSize is the cache line size in bytes (64 in both Table II
	// configurations).
	LineSize int
	// L1 is the per-core private first-level cache.
	L1 CacheCfg
	// L2 is the second-level cache; private per core when L2Shared is
	// false (high-performance config), shared otherwise (low-power).
	L2       CacheCfg
	L2Shared bool
	// HasL3 enables the shared last-level cache.
	HasL3 bool
	L3    CacheCfg
	// DRAMLat is the DRAM access latency in cycles.
	DRAMLat float64
	// DRAMCyclesPerLine is the channel occupancy of one line transfer;
	// it bounds bandwidth and creates inter-thread contention.
	DRAMCyclesPerLine float64
	// SharedBanks is the number of banks of each shared cache level;
	// each bank serves one access at a time (occupancy BankCycles).
	SharedBanks int
	// BankCycles is the occupancy of a shared-cache bank per access.
	BankCycles float64
	// CoherenceLat is the added latency when a write must invalidate
	// remote private copies.
	CoherenceLat float64
	// AtomicLat is the added latency of atomic read-modify-write
	// operations.
	AtomicLat float64
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("mem: line size %d must be a positive power of two", c.LineSize)
	}
	if c.LineSize < 4 {
		// The caches pack line numbers as line<<2|state in one tag word,
		// which is injective only when line numbers use at most 62 bits —
		// i.e. lines of at least 4 bytes.
		return fmt.Errorf("mem: line size %d must be at least 4 bytes", c.LineSize)
	}
	if err := c.L1.validate("L1", c.LineSize); err != nil {
		return err
	}
	if err := c.L2.validate("L2", c.LineSize); err != nil {
		return err
	}
	if c.HasL3 {
		if err := c.L3.validate("L3", c.LineSize); err != nil {
			return err
		}
	}
	if c.DRAMLat <= 0 {
		return fmt.Errorf("mem: DRAM latency %v must be positive", c.DRAMLat)
	}
	if c.DRAMCyclesPerLine < 0 {
		return fmt.Errorf("mem: DRAM cycles/line %v must be non-negative", c.DRAMCyclesPerLine)
	}
	if c.SharedBanks <= 0 {
		return fmt.Errorf("mem: shared banks %d must be positive", c.SharedBanks)
	}
	return nil
}

// Stats aggregates hierarchy event counts for one simulation.
type Stats struct {
	Accesses      uint64
	L1Hits        uint64
	L2Hits        uint64
	L3Hits        uint64
	DRAMAccesses  uint64
	Writebacks    uint64
	Invalidations uint64
	// QueueCycles is the total cycles spent waiting for busy shared
	// resources (banks, DRAM channel) — the contention signal.
	QueueCycles float64
}

// System is the memory hierarchy for one simulated multi-core. It is not
// safe for concurrent use; the engine is single-threaded.
type System struct {
	cfg       Config
	lineShift uint
	l1        []*Cache
	l2        []*Cache // length nCores when private, 1 when shared
	l3        *Cache
	dir       dirTable // line -> bitmask of cores with private copies
	banks     channel  // aggregate shared-cache bank capacity
	dram      channel  // DRAM channel capacity
	stats     Stats
}

// dirEntry is one coherence-directory slot. Key and value share the
// entry, so a probe touches one cache line instead of two parallel
// arrays.
type dirEntry struct {
	line uint64 // key (valid only when mask != 0)
	mask uint64 // sharer bitmask; 0 marks an empty slot
}

// dirTable is the coherence directory: an open-addressing hash table from
// line number to sharers bitmask. It replaces a Go map on the
// per-instruction memory path — every store consults the directory before
// probing the hierarchy, and every fill updates it, so the table's
// single-multiply hash and linear probe are a measurable share of
// detailed-mode throughput. A slot is empty iff its mask is zero: sharer
// masks are only ever written with at least one bit set, and entries are
// never deleted (an invalidated line simply keeps its new owner's bit).
//
// Lookup semantics are exactly those of the map it replaces (exact
// key/value store, no iteration), so simulation results are bit-identical
// regardless of table layout or growth schedule.
type dirTable struct {
	entries []dirEntry
	shift   uint // 64 - log2(len), for the fibonacci hash
	used    int  // occupied slots

	// memoLine/memoSlot cache the last probed slot: a store probes the
	// directory for coherence and again when the fill records ownership,
	// and both probes target the same line within one Access. The memo is
	// invalidated by grow (slots move) and reused only on an exact line
	// match, so it cannot change results.
	memoLine uint64
	memoSlot int
	memoOK   bool
}

// dirMinBits is the minimum table size (2^dirMinBits slots).
const dirMinBits = 10

// init empties the table at 2^bits slots.
func (t *dirTable) init(bits uint) {
	t.entries = make([]dirEntry, 1<<bits)
	t.shift = 64 - bits
	t.used = 0
	t.memoOK = false
}

// slot returns the index holding line, or the empty slot where it would
// be inserted. The result is memoised per line; any insert of a
// different line invalidates it (the probe chain may have changed), and
// grow invalidates it wholesale.
func (t *dirTable) slot(line uint64) int {
	if t.memoOK && t.memoLine == line {
		return t.memoSlot
	}
	mask := uint64(len(t.entries) - 1)
	i := (line * 0x9e3779b97f4a7c15) >> t.shift
	for t.entries[i].mask != 0 && t.entries[i].line != line {
		i = (i + 1) & mask
	}
	t.memoLine = line
	t.memoSlot = int(i)
	t.memoOK = true
	return int(i)
}

// get returns the sharers mask of line (0 when absent).
func (t *dirTable) get(line uint64) uint64 { return t.entries[t.slot(line)].mask }

// set stores mask (non-zero) as the sharers of line.
func (t *dirTable) set(line uint64, mask uint64) {
	i := t.slot(line)
	if t.entries[i].mask == 0 {
		t.entries[i].line = line
		t.used++
		if t.used*4 > len(t.entries)*3 {
			t.grow()
			i = t.slot(line)
			t.entries[i].line = line
			t.used++
		}
	}
	t.entries[i].mask = mask
}

// or merges bit into the sharers of line.
func (t *dirTable) or(line uint64, bit uint64) {
	i := t.slot(line)
	if t.entries[i].mask == 0 {
		t.set(line, bit)
		return
	}
	t.entries[i].mask |= bit
}

// grow doubles the table, rehashing every occupied slot.
func (t *dirTable) grow() {
	old := t.entries
	t.init(64 - t.shift + 1)
	for _, e := range old {
		if e.mask == 0 {
			continue
		}
		t.entries[t.slot(e.line)] = e
		t.used++
	}
}

// reset empties the table, keeping its capacity.
func (t *dirTable) reset() {
	clear(t.entries)
	t.used = 0
	t.memoOK = false
}

// channel models a bandwidth-limited resource with an order-tolerant
// backlog integrator: arrivals are bucketed by coarse time windows; each
// elapsed window drains the backlog at the channel's service rate, and a
// request's queueing delay is the backlog in front of it times the service
// time. Unlike a busy-until FIFO frontier, the model tolerates the bounded
// out-of-order timestamps produced by interleaving cores in time slices
// (issue times may lag commit-gated slice boundaries by the ROB depth).
type channel struct {
	service float64 // cycles per line transfer
	bucketW float64 // integration window in cycles
	bucket  int64
	backlog float64 // lines left unserved at the current window start
	arrived float64 // lines arrived within the current window
}

func newChannel(service float64) channel {
	return channel{service: service, bucketW: 256}
}

// request registers one line transfer at time now and returns the queueing
// delay its requester observes.
func (ch *channel) request(now float64) float64 {
	if ch.service <= 0 {
		return 0
	}
	ch.roll(now)
	delay := (ch.backlog + ch.arrived) * ch.service
	ch.arrived++
	return delay
}

// consume registers a background line transfer (write-back) that occupies
// capacity without observing a delay.
func (ch *channel) consume() { ch.arrived++ }

func (ch *channel) roll(now float64) {
	b := int64(now / ch.bucketW)
	if b <= ch.bucket {
		return
	}
	servable := float64(b-ch.bucket) * ch.bucketW / ch.service
	ch.backlog += ch.arrived - servable
	if ch.backlog < 0 {
		ch.backlog = 0
	}
	ch.arrived = 0
	ch.bucket = b
}

func (ch *channel) reset() {
	ch.bucket = 0
	ch.backlog = 0
	ch.arrived = 0
}

// NewSystem builds a hierarchy for nCores cores (at most 64, the directory
// uses a 64-bit sharers mask).
func NewSystem(cfg Config, nCores int) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if nCores <= 0 || nCores > 64 {
		return nil, fmt.Errorf("mem: core count %d out of range [1,64]", nCores)
	}
	s := &System{
		cfg:       cfg,
		lineShift: uint(math.Log2(float64(cfg.LineSize))),
		banks:     newChannel(cfg.BankCycles / float64(cfg.SharedBanks)),
		dram:      newChannel(cfg.DRAMCyclesPerLine),
	}
	s.dir.init(dirMinBits)
	for i := 0; i < nCores; i++ {
		c, err := NewCache(cfg.L1, cfg.LineSize)
		if err != nil {
			return nil, err
		}
		s.l1 = append(s.l1, c)
	}
	nL2 := nCores
	if cfg.L2Shared {
		nL2 = 1
	}
	for i := 0; i < nL2; i++ {
		c, err := NewCache(cfg.L2, cfg.LineSize)
		if err != nil {
			return nil, err
		}
		s.l2 = append(s.l2, c)
	}
	if cfg.HasL3 {
		c, err := NewCache(cfg.L3, cfg.LineSize)
		if err != nil {
			return nil, err
		}
		s.l3 = c
	}
	return s, nil
}

// Stats returns a copy of the accumulated statistics.
func (s *System) Stats() Stats { return s.stats }

// Line returns the line number of a byte address.
func (s *System) Line(addr uint64) uint64 { return addr >> s.lineShift }

func (s *System) l2For(core int) *Cache {
	if s.cfg.L2Shared {
		return s.l2[0]
	}
	return s.l2[core]
}

// bankDelay models aggregate port contention of the shared cache levels.
func (s *System) bankDelay(line uint64, now float64) float64 {
	delay := s.banks.request(now)
	s.stats.QueueCycles += delay
	return delay
}

// dramDelay models the bandwidth-limited DRAM channel.
func (s *System) dramDelay(now float64) float64 {
	delay := s.dram.request(now)
	s.stats.QueueCycles += delay
	return delay
}

// Access performs a load (write=false) or store/atomic access by core at
// time now and returns its latency in cycles. The hierarchy state is
// updated: fills, evictions, write-backs, coherence invalidations.
func (s *System) Access(core int, addr uint64, write, atomic bool, now float64) float64 {
	s.stats.Accesses++
	line := s.Line(addr)
	bit := uint64(1) << uint(core)
	lat := 0.0
	effWrite := write || atomic

	// Coherence: a write needs exclusivity; invalidate remote private
	// copies before using any local copy.
	if effWrite {
		if remote := s.dir.get(line) &^ bit; remote != 0 {
			// Iterate the sharer bits directly (ascending core order,
			// like the full core scan this replaced).
			for m := remote; m != 0; m &= m - 1 {
				c := bits.TrailingZeros64(m)
				s.l1[c].Invalidate(line)
				if !s.cfg.L2Shared {
					s.l2For(c).Invalidate(line)
				}
				s.stats.Invalidations++
			}
			s.dir.set(line, bit)
			lat += s.cfg.CoherenceLat
		}
	}

	l1 := s.l1[core]
	if l1.Lookup(line, effWrite) {
		s.stats.L1Hits++
		lat += s.cfg.L1.Lat
		if atomic {
			lat += s.cfg.AtomicLat
		}
		return lat
	}
	lat += s.cfg.L1.Lat // L1 probe cost on the way down

	l2 := s.l2For(core)
	if s.cfg.L2Shared {
		lat += s.bankDelay(line, now+lat)
	}
	if l2.Lookup(line, effWrite && s.cfg.L2Shared) {
		s.stats.L2Hits++
		lat += s.cfg.L2.Lat
		s.fillPrivate(core, line, effWrite, bit)
		if atomic {
			lat += s.cfg.AtomicLat
		}
		return lat
	}
	lat += s.cfg.L2.Lat

	if s.l3 != nil {
		lat += s.bankDelay(line, now+lat)
		if s.l3.Lookup(line, false) {
			s.stats.L3Hits++
			lat += s.cfg.L3.Lat
			s.fillMid(core, line, effWrite, bit)
			if atomic {
				lat += s.cfg.AtomicLat
			}
			return lat
		}
		lat += s.cfg.L3.Lat
	}

	// DRAM access.
	s.stats.DRAMAccesses++
	lat += s.dramDelay(now + lat)
	lat += s.cfg.DRAMLat
	if s.l3 != nil {
		if _, dirty, had := s.l3.Fill(line, false); had && dirty {
			s.writeback()
		}
	}
	s.fillMid(core, line, effWrite, bit)
	if atomic {
		lat += s.cfg.AtomicLat
	}
	return lat
}

// fillMid fills the L2 (and the private levels above it) after a miss
// serviced below L2.
func (s *System) fillMid(core int, line uint64, write bool, bit uint64) {
	l2 := s.l2For(core)
	if _, dirty, had := l2.Fill(line, write && s.cfg.L2Shared); had && dirty {
		s.writeback()
	}
	s.fillPrivate(core, line, write, bit)
}

// fillPrivate fills the core's L1 (the L2, when private, is filled by
// fillMid or already holds the line) and records the core in the sharers
// directory.
func (s *System) fillPrivate(core int, line uint64, write bool, bit uint64) {
	if _, dirty, had := s.l1[core].Fill(line, write); had && dirty {
		s.writeback()
	}
	if write {
		s.dir.set(line, bit)
	} else {
		s.dir.or(line, bit)
	}
}

// writeback accounts for a dirty eviction. Write-backs drain from write
// buffers when the channel would otherwise be idle, so they consume
// channel capacity (extending an existing backlog) but never push the
// channel frontier into the future and never add latency to the
// requesting core.
func (s *System) writeback() {
	s.stats.Writebacks++
	s.dram.consume()
}

// L1Occupancy returns the valid-line fraction of a core's L1, used by
// warm-up diagnostics.
func (s *System) L1Occupancy(core int) float64 { return s.l1[core].Occupancy() }

// SharedOccupancy returns the valid-line fraction of the largest shared
// level (L3, or L2 when shared, or 0 when everything is private).
func (s *System) SharedOccupancy() float64 {
	if s.l3 != nil {
		return s.l3.Occupancy()
	}
	if s.cfg.L2Shared {
		return s.l2[0].Occupancy()
	}
	return 0
}

// Reset restores cold caches and zeroes statistics and queue state.
func (s *System) Reset() {
	for _, c := range s.l1 {
		c.Reset()
	}
	for _, c := range s.l2 {
		c.Reset()
	}
	if s.l3 != nil {
		s.l3.Reset()
	}
	s.dir.reset()
	s.banks.reset()
	s.dram.reset()
	s.stats = Stats{}
}
