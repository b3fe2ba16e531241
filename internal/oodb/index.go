package oodb

import "math/bits"

// Key packs the item into the integer an ItemIndex hashes: OID in the high
// bits, attribute in the low byte, so WholeObject (0xFF) and attribute 0 of
// one object are distinct keys.
func (it Item) Key() uint64 { return uint64(it.OID)<<8 | uint64(it.Attr) }

// Key returns the ItemIndex key of a bare object id (tables keyed by OID
// alone, such as the server's buffer pool): the key of its whole-object
// item, so every key the program makes has the Item.Key layout.
func (o OID) Key() uint64 { return ObjectItem(o).Key() }

// ItemIndex maps item keys (Item.Key, OID.Key) to int32 slots: the lookup
// table under every per-access structure that keeps its state in flat
// slices. It is an open-addressing table — Fibonacci hash, linear probing,
// power-of-two capacity grown at 3/4 load — and deletion shifts the rest of
// the probe chain back over the hole instead of leaving a tombstone, so a
// cache that evicts on every insert never degrades or needs a rehash. Keys
// and slots sit in separate slices, so a probe reads 8-byte keys only (most
// probes on the install path are misses) and a cell costs 12 bytes, plus
// its share of the mask below. Keys must be below 2^64-1. The zero value
// is an empty index.
//
// Most lookups miss, so before it hashes the index consults an exact
// presence mask over the object ids below its span, 4 × cells: one 16-bit
// word per id, one bit for each attribute 0..NumAttrs-1 and one for
// WholeObject. The mask is allocated only up to the highest id it has
// held, so an id between its end and the span is absent by construction.
// Either way a miss costs one comparison and at most one word, without
// hashing. A key with another low byte, or an object id beyond the span,
// always takes the hash path. The span keeps the mask (2 bytes × 4 per
// cell) no larger than the keys array.
type ItemIndex struct {
	keys    []uint64 // key+1, so zero means empty
	slots   []int32  // slots[i] belongs to keys[i]
	present []uint16 // presence mask, up to the highest object id held below the span
	n       int
	shift   uint8 // 64 - log2(len(keys))
}

const minIndexCells = 8

// home returns the first probe position of a stored (key+1) value.
func (x *ItemIndex) home(stored uint64) int {
	return int((stored * 0x9E3779B97F4A7C15) >> x.shift)
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
	return word < 4*uint64(len(x.keys)) && bit <= NumAttrs
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
			p := make([]uint16, n, min(max(n, cap(x.present)*5/4), 4*len(x.keys)))
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
	} else if len(x.keys) == 0 || x.spanned(word, bit) {
		return 0, false // past the mask's end: absent by construction
	}
	stored, mask := key+1, len(x.keys)-1
	for i := x.home(stored); ; i = (i + 1) & mask {
		switch x.keys[i] {
		case stored:
			return x.slots[i], true
		case 0:
			return 0, false
		}
	}
}

// Set stores slot under key, replacing any previous slot.
func (x *ItemIndex) Set(key uint64, slot int32) {
	if (x.n+1)*4 > len(x.keys)*3 {
		x.grow()
	}
	stored, mask := key+1, len(x.keys)-1
	for i := x.home(stored); ; i = (i + 1) & mask {
		switch x.keys[i] {
		case 0:
			x.keys[i] = stored
			x.n++
			x.mark(key)
			fallthrough
		case stored:
			x.slots[i] = slot
			return
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
	} else if len(x.keys) == 0 || x.spanned(word, bit) {
		return 0, false
	}
	stored, mask := key+1, len(x.keys)-1
	i := x.home(stored)
	for x.keys[i] != stored {
		if x.keys[i] == 0 {
			return 0, false
		}
		i = (i + 1) & mask
	}
	slot := x.slots[i]
	// Backward shift: a later cell of the chain moves into the hole when
	// the hole lies on its own probe path (its home is at or before the
	// hole), which leaves a new hole further along.
	for j := (i + 1) & mask; x.keys[j] != 0; j = (j + 1) & mask {
		if (j-x.home(x.keys[j]))&mask >= (j-i)&mask {
			x.keys[i], x.slots[i] = x.keys[j], x.slots[j]
			i = j
		}
	}
	x.keys[i] = 0
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
	clear(x.keys)
	clear(x.present)
	x.n = 0
}

// grow doubles the table (or allocates the first one) and re-inserts,
// marking the keys the doubled span brings into the mask's domain.
func (x *ItemIndex) grow() {
	oldKeys, oldSlots := x.keys, x.slots
	size := 2 * len(oldKeys)
	if size < minIndexCells {
		size = minIndexCells
	}
	x.keys, x.slots = make([]uint64, size), make([]int32, size)
	x.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for j, k := range oldKeys {
		if k == 0 {
			continue
		}
		i := x.home(k)
		for x.keys[i] != 0 {
			i = (i + 1) & mask
		}
		x.keys[i], x.slots[i] = k, oldSlots[j]
		x.mark(k - 1)
	}
}
