package mem

import (
	"math/rand/v2"
	"testing"
)

// TestDirTableMatchesMap drives the coherence directory and a Go map with
// the same seeded get/set/or sequence while the table grows from its
// minimum size through at least five doublings, then empties it with reset
// and drives it again. Every operation is followed by a get of the same
// line, which is served from the slot memo, and a get of the previous
// operation's line, which probes afresh — so a memo left pointing into the
// table a grow replaced, or into the slot a reset emptied, shows up on the
// next steps. Keys mix random 58-bit lines with strided runs (the lines a
// streaming task touches) and multiples of a large power of two, which
// collide under the multiplicative hash's high bits.
func TestDirTableMatchesMap(t *testing.T) {
	const doublings = 6
	var d dirTable
	d.init(dirMinBits)
	if n := len(d.entries); n != 1<<dirMinBits {
		t.Fatalf("initial table has %d slots, want %d", n, 1<<dirMinBits)
	}
	r := rand.New(rand.NewPCG(17, 4))
	sizes := map[int]bool{}
	want := driveDir(t, &d, r, func(op int) bool {
		sizes[len(d.entries)] = true
		return len(d.entries) < 1<<(dirMinBits+doublings)
	})
	for i := 0; i <= doublings; i++ {
		if n := 1 << (dirMinBits + i); !sizes[n] {
			t.Fatalf("the table never had %d slots; sizes seen %v", n, sizes)
		}
	}

	// Leave the memo on a line displaced from its home slot, so a reset
	// that kept the memo would put that line back where probes never look.
	var displaced uint64
	for k := range want {
		if home := (k * 0x9e3779b97f4a7c15) >> d.shift; uint64(d.slot(k)) != home {
			displaced = k
			break
		}
	}
	d.get(displaced)
	slots := len(d.entries)
	d.reset()
	if len(d.entries) != slots || d.used != 0 {
		t.Fatalf("reset: %d slots, %d used; want %d, 0", len(d.entries), d.used, slots)
	}
	d.set(displaced, 1)
	d.get(displaced + 1) // moves the memo off the line
	if got := d.get(displaced); got != 1 {
		t.Fatalf("get(%#x) after reset and set = %#x, want 1", displaced, got)
	}
	d.reset()
	driveDir(t, &d, r, func(op int) bool { return op < 20000 })
}

// driveDir applies seeded random get/set/or operations to d while more
// reports true, checks each against a map, and returns the map.
func driveDir(t *testing.T, d *dirTable, r *rand.Rand, more func(op int) bool) map[uint64]uint64 {
	t.Helper()
	want := map[uint64]uint64{}
	var keys []uint64
	next := uint64(0)
	key := func() uint64 {
		// Revisit a known line half the time once some exist.
		if len(keys) > 0 && r.IntN(2) == 0 {
			return keys[r.IntN(len(keys))]
		}
		var k uint64
		switch r.IntN(3) {
		case 0:
			k = r.Uint64() >> 6
		case 1:
			next += 1 + uint64(r.IntN(3))
			k = next
		default:
			k = uint64(r.IntN(1<<20)) << 32
		}
		keys = append(keys, k)
		return k
	}
	prev := uint64(0)
	for op := 0; more(op); op++ {
		k := key()
		bit := uint64(1) << uint(r.IntN(64))
		switch r.IntN(3) {
		case 0:
			if got := d.get(k); got != want[k] {
				t.Fatalf("op %d: get(%#x) = %#x, want %#x", op, k, got, want[k])
			}
		case 1:
			d.set(k, bit)
			want[k] = bit
		default:
			d.or(k, bit)
			want[k] |= bit
		}
		if got := d.get(k); got != want[k] {
			t.Fatalf("op %d: get(%#x) after the op = %#x, want %#x (table %d slots)", op, k, got, want[k], len(d.entries))
		}
		if got := d.get(prev); got != want[prev] {
			t.Fatalf("op %d: get(%#x) of the previous line = %#x, want %#x", op, prev, got, want[prev])
		}
		prev = k
	}
	for k, m := range want {
		if got := d.get(k); got != m {
			t.Fatalf("final get(%#x) = %#x, want %#x", k, got, m)
		}
	}
	if d.used != len(want) {
		t.Fatalf("used = %d, want %d lines", d.used, len(want))
	}
	return want
}
