package schedule

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
)

// A schedule's identity is its structure: the tile counts, every tile
// factor, the unroll step, the vector length and the two flags — exactly
// what Fingerprint spells out. The draft deduplicates and orders
// thousands of candidates a round, so it compares that structure in
// place instead of building the string: Key hashes it, Same compares it
// and CompareFingerprints orders it as the strings would.

// keyMul is an odd 64-bit multiplier (2⁶⁴ divided by the golden ratio).
const keyMul = 0x9e3779b97f4a7c15

// Key hashes the schedule's structure into 64 bits. Structurally equal
// schedules — exactly those with equal fingerprints — have equal keys;
// unequal ones may collide, so a key selects a bucket and Same decides.
//
//pruner:hotpath
func (s *Schedule) Key() uint64 {
	h := uint64(len(s.SpatialTiles))<<32 | uint64(len(s.ReduceTiles))
	for i := range s.SpatialTiles {
		for _, v := range s.SpatialTiles[i] {
			h = keyMix(h, v)
		}
	}
	for i := range s.ReduceTiles {
		for _, v := range s.ReduceTiles[i] {
			h = keyMix(h, v)
		}
	}
	flags := 0
	if s.UseShared {
		flags |= 1
	}
	if s.TensorCore {
		flags |= 2
	}
	h = keyMix(keyMix(keyMix(h, s.UnrollStep), s.VectorLen), flags)
	return h ^ h>>29
}

func keyMix(h uint64, v int) uint64 {
	h = (h ^ uint64(v)) * keyMul
	return h ^ h>>32
}

// Same reports whether s and o are structurally equal, which is whether
// their fingerprints are equal.
func (s *Schedule) Same(o *Schedule) bool {
	return s == o || s.UnrollStep == o.UnrollStep && s.VectorLen == o.VectorLen &&
		s.UseShared == o.UseShared && s.TensorCore == o.TensorCore &&
		slices.Equal(s.SpatialTiles, o.SpatialTiles) && slices.Equal(s.ReduceTiles, o.ReduceTiles)
}

// CompareFingerprints returns strings.Compare(a.Fingerprint(),
// b.Fingerprint()) without building either string when a and b have the
// same number of spatial and reduction tiles. Then the two strings carry
// the same literal text at the same places and differ only in their
// numbers and flags, so up to the first field that differs they are
// equal, and that field decides: a number compares as its decimal digits
// followed by the character the fingerprint writes after it (the same on
// both sides), which settles at a digit or at that separator — never a
// digit — before either side runs out; a flag compares as "false" <
// "true". Schedules of different shapes, which one task never produces,
// compare by their strings.
func CompareFingerprints(a, b *Schedule) int {
	if a == b {
		return 0
	}
	if len(a.SpatialTiles) != len(b.SpatialTiles) || len(a.ReduceTiles) != len(b.ReduceTiles) {
		return strings.Compare(a.Fingerprint(), b.Fingerprint())
	}
	for i := range a.SpatialTiles {
		if c := compareTile(a.SpatialTiles[i][:], b.SpatialTiles[i][:]); c != 0 {
			return c
		}
	}
	for i := range a.ReduceTiles {
		if c := compareTile(a.ReduceTiles[i][:], b.ReduceTiles[i][:]); c != 0 {
			return c
		}
	}
	switch {
	case a.UnrollStep != b.UnrollStep:
		return compareDecimal(a.UnrollStep, b.UnrollStep, '|') // "|u<n>|v"
	case a.VectorLen != b.VectorLen:
		return compareDecimal(a.VectorLen, b.VectorLen, '|') // "|v<n>|sh"
	case a.UseShared != b.UseShared:
		return compareFlag(a.UseShared)
	case a.TensorCore != b.TensorCore:
		return compareFlag(a.TensorCore)
	}
	return 0
}

// compareTile orders two equally long tiles as their "[f0 f1 ...]" text.
func compareTile(a, b []int) int {
	for j := range a {
		if a[j] != b[j] {
			sep := byte(' ')
			if j == len(a)-1 {
				sep = ']'
			}
			return compareDecimal(a[j], b[j], sep)
		}
	}
	return 0
}

// compareDecimal orders x and y as the strings dec(x)+sep and dec(y)+sep.
func compareDecimal(x, y int, sep byte) int {
	var bx, by [24]byte
	dx := append(strconv.AppendInt(bx[:0], int64(x), 10), sep)
	dy := append(strconv.AppendInt(by[:0], int64(y), 10), sep)
	return bytes.Compare(dx, dy)
}

// compareFlag orders two differing flags given the first one's value:
// "false" < "true".
func compareFlag(a bool) int {
	if a {
		return 1
	}
	return -1
}

// Set holds schedules up to structural equality: Add keeps the first of
// each kind and numbers the members in the order they were added. The
// zero value is an empty set.
type Set struct {
	head  map[uint64]int32 // Key → index of the first member with that key
	next  []int32          // index of the next member with the same key; -1 ends the chain
	items []*Schedule
}

// NewSet returns an empty set sized for n members.
func NewSet(n int) *Set {
	return &Set{head: make(map[uint64]int32, n), next: make([]int32, 0, n), items: make([]*Schedule, 0, n)}
}

// Add inserts s unless a structurally equal schedule is a member. It
// returns that member's index (s's own when inserted) and whether s was
// inserted.
func (t *Set) Add(s *Schedule) (int, bool) {
	k := s.Key()
	if i := t.find(k, s); i >= 0 {
		return int(i), false
	}
	if t.head == nil {
		t.head = make(map[uint64]int32)
	}
	first, ok := t.head[k]
	if !ok {
		first = -1
	}
	i := int32(len(t.items))
	t.head[k] = i
	t.next = append(t.next, first)
	t.items = append(t.items, s)
	return int(i), true
}

// Has reports whether a schedule structurally equal to s is a member.
func (t *Set) Has(s *Schedule) bool { return t.find(s.Key(), s) >= 0 }

// find returns the index of the member structurally equal to s, whose
// key is k, or -1.
func (t *Set) find(k uint64, s *Schedule) int32 {
	i, ok := t.head[k]
	if !ok {
		return -1
	}
	for ; i >= 0; i = t.next[i] {
		if t.items[i].Same(s) {
			return i
		}
	}
	return -1
}

// Reset empties the set, keeping its storage.
func (t *Set) Reset() {
	clear(t.head)
	t.next = t.next[:0]
	t.items = t.items[:0]
}
