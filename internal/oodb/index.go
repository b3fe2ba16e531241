package oodb

import (
	"fmt"
	"math/bits"
)

// Key packs the item into the integer an ItemIndex hashes: OID in the high
// bits, attribute in the low byte, so WholeObject (0xFF) and attribute 0 of
// one object are distinct keys.
func (it Item) Key() uint64 { return uint64(it.OID)<<8 | uint64(it.Attr) }

// Key returns the ItemIndex key of a bare object id (tables keyed by OID
// alone, such as the server's buffer pool): the key of its whole-object
// item, so every key the program makes has the Item.Key layout.
func (o OID) Key() uint64 { return ObjectItem(o).Key() }

// ItemIndex maps item keys (Item.Key, OID.Key) to slots: the lookup table
// under every per-access structure that keeps its state in flat slices.
// It is an open-addressing table — Fibonacci hash, linear probing,
// power-of-two capacity grown at 3/4 load — and deletion shifts the rest of
// the probe chain back over the hole instead of leaving a tombstone, so a
// cache that evicts on every insert never degrades or needs a rehash. Each
// cell is one word, the key in its high 40 bits and slot+1 in its low 24
// (zero means empty), so a probe reads one cache line and a cell costs 8
// bytes, plus its share of the mask below. Keys must be below MaxIndexKey
// (every Item.Key is) and slots in 0..MaxIndexSlot; Set panics on any
// other, never truncating it. The zero value is an empty index.
//
// Most lookups miss, so before it hashes the index consults an exact
// presence mask over the object ids below its span, 4 × cells: one 16-bit
// word per id, one bit for each attribute 0..NumAttrs-1 and one for
// WholeObject. The mask is allocated only up to the highest id it has
// held, so an id between its end and the span is absent by construction.
// Either way a miss costs one comparison and at most one word, without
// hashing. A key with another low byte, or an object id beyond the span,
// always takes the hash path. The span keeps the mask (2 bytes × 4 per
// cell) no larger than the cells array.
type ItemIndex struct {
	cells   []uint64 // key<<slotBits | slot+1, or 0 for an empty cell
	present []uint16 // presence mask, up to the highest object id held below the span
	n       int
	shift   uint8 // 64 - log2(len(cells))
}

// slotBits is the width of a cell's slot+1 field; the key takes the rest.
const slotBits = 24

const (
	// MaxIndexSlot is the largest slot an ItemIndex holds: slot+1 must fit
	// the cell's low 24 bits.
	MaxIndexSlot = 1<<slotBits - 2
	// MaxIndexKey bounds the keys an ItemIndex holds: a key must fit the
	// cell's 40 high bits, as Item.Key of any item does.
	MaxIndexKey = 1 << (64 - slotBits)
	// MaxIndexedObjects is the largest database whose every item, each
	// attribute and the whole object, an ItemIndex can number with slots.
	MaxIndexedObjects = (MaxIndexSlot + 1) / (NumAttrs + 1)
)

const minIndexCells = 8

// cellSlot returns the slot an occupied cell holds.
func cellSlot(c uint64) int32 { return int32(c&(1<<slotBits-1)) - 1 }

// home returns the first probe position of key.
func (x *ItemIndex) home(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> x.shift)
}

// maskBit returns the mask word and bit number of key, and whether the
// mask holds that bit. The bit is the low byte plus one, so WholeObject
// (0xFF) wraps to bit 0 and attribute a takes bit a+1.
func (x *ItemIndex) maskBit(key uint64) (word uint64, bit uint8, in bool) {
	word, bit = key>>8, uint8(key+1)
	return word, bit, word < uint64(len(x.present)) && bit <= NumAttrs
}

// spanned reports whether (word, bit) lies in the mask's domain, the
// object ids below the span, whether or not the mask reaches it yet.
func (x *ItemIndex) spanned(word uint64, bit uint8) bool {
	return word < 4*uint64(len(x.cells)) && bit <= NumAttrs
}

// mark sets the mask bit of a key in the span, first extending the mask
// to reach its word; other keys have no bit. The mask grows by at least a
// quarter at a time, never past the span.
func (x *ItemIndex) mark(key uint64) {
	word, bit := key>>8, uint8(key+1)
	if !x.spanned(word, bit) {
		return
	}
	if n := int(word) + 1; n > len(x.present) {
		if n > cap(x.present) {
			p := make([]uint16, n, min(max(n, cap(x.present)*5/4), 4*len(x.cells)))
			copy(p, x.present)
			x.present = p
		}
		x.present = x.present[:n]
	}
	x.present[word] |= 1 << bit
}

// Len returns the number of keys present.
func (x *ItemIndex) Len() int { return x.n }

// Get returns the slot stored under key.
func (x *ItemIndex) Get(key uint64) (int32, bool) {
	if word, bit, in := x.maskBit(key); in {
		if x.present[word]>>bit&1 == 0 {
			return 0, false
		}
	} else if len(x.cells) == 0 || x.spanned(word, bit) {
		return 0, false // past the mask's end: absent by construction
	}
	mask := len(x.cells) - 1
	for i := x.home(key); ; i = (i + 1) & mask {
		switch c := x.cells[i]; {
		case c == 0:
			return 0, false
		case c>>slotBits == key:
			return cellSlot(c), true
		}
	}
}

// Set stores slot under key, replacing any previous slot, and reports
// whether it added the key.
func (x *ItemIndex) Set(key uint64, slot int32) (added bool) {
	if key >= MaxIndexKey || uint32(slot) > MaxIndexSlot {
		panic(fmt.Sprintf("oodb: ItemIndex cannot hold key %#x at slot %d", key, slot))
	}
	if (x.n+1)*4 > len(x.cells)*3 {
		x.grow()
	}
	mask := len(x.cells) - 1
	cell := key<<slotBits | uint64(slot+1)
	for i := x.home(key); ; i = (i + 1) & mask {
		switch c := x.cells[i]; {
		case c == 0:
			x.cells[i] = cell
			x.n++
			x.mark(key)
			return true
		case c>>slotBits == key:
			x.cells[i] = cell
			return false
		}
	}
}

// Delete removes key, returning the slot it held.
func (x *ItemIndex) Delete(key uint64) (int32, bool) {
	word, bit, in := x.maskBit(key)
	if in {
		if x.present[word]>>bit&1 == 0 {
			return 0, false
		}
	} else if len(x.cells) == 0 || x.spanned(word, bit) {
		return 0, false
	}
	mask := len(x.cells) - 1
	i := x.home(key)
	for c := x.cells[i]; c == 0 || c>>slotBits != key; c = x.cells[i] {
		if c == 0 {
			return 0, false
		}
		i = (i + 1) & mask
	}
	slot := cellSlot(x.cells[i])
	// Backward shift: a later cell of the chain moves into the hole when
	// the hole lies on its own probe path (its home is at or before the
	// hole), which leaves a new hole further along.
	for j := (i + 1) & mask; x.cells[j] != 0; j = (j + 1) & mask {
		if (j-x.home(x.cells[j]>>slotBits))&mask >= (j-i)&mask {
			x.cells[i] = x.cells[j]
			i = j
		}
	}
	x.cells[i] = 0
	x.n--
	if in {
		x.present[word] &^= 1 << bit
	}
	return slot, true
}

// Reset empties the index, keeping its storage.
func (x *ItemIndex) Reset() {
	if x.n == 0 {
		return
	}
	clear(x.cells)
	clear(x.present)
	x.n = 0
}

// grow doubles the table (or allocates the first one) and re-inserts,
// marking the keys the doubled span brings into the mask's domain.
func (x *ItemIndex) grow() {
	old := x.cells
	size := max(2*len(old), minIndexCells)
	x.cells = make([]uint64, size)
	x.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, c := range old {
		if c == 0 {
			continue
		}
		key := c >> slotBits
		i := x.home(key)
		for x.cells[i] != 0 {
			i = (i + 1) & mask
		}
		x.cells[i] = c
		x.mark(key)
	}
}
