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
// probes on the install path are misses) and a cell costs 12 bytes, 20
// with its share of the mask below. Keys must be below 2^64-1. The zero
// value is an empty index.
//
// Most lookups miss, so before it hashes the index consults an exact
// presence mask: one 16-bit word per object id below 4 × cells, one bit
// for each attribute 0..NumAttrs-1 and one for WholeObject. A clear bit
// answers Get and Delete from that one word. A key with another low byte,
// or an object id beyond the span, always takes the hash path. The span
// keeps the mask (2 bytes × 4 per cell) no larger than the keys array.
type ItemIndex struct {
	keys    []uint64 // key+1, so zero means empty
	slots   []int32  // slots[i] belongs to keys[i]
	present []uint16 // presence mask of object ids below 4*len(keys)
	n       int
	shift   uint8 // 64 - log2(len(keys))
}

const minIndexCells = 8

// home returns the first probe position of a stored (key+1) value.
func (x *ItemIndex) home(stored uint64) int {
	return int((stored * 0x9E3779B97F4A7C15) >> x.shift)
}

// maskBit returns the mask word and bit number of key, and whether key
// lies in the mask's domain. The bit is the low byte plus one, so
// WholeObject (0xFF) wraps to bit 0 and attribute a takes bit a+1.
func (x *ItemIndex) maskBit(key uint64) (word uint64, bit uint8, in bool) {
	word, bit = key>>8, uint8(key+1)
	return word, bit, word < uint64(len(x.present)) && bit <= NumAttrs
}

// Len returns the number of keys present.
func (x *ItemIndex) Len() int { return x.n }

// Get returns the slot stored under key.
func (x *ItemIndex) Get(key uint64) (int32, bool) {
	if word, bit, in := x.maskBit(key); in {
		if x.present[word]>>bit&1 == 0 {
			return 0, false
		}
	} else if len(x.keys) == 0 {
		return 0, false
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
			if word, bit, in := x.maskBit(key); in {
				x.present[word] |= 1 << bit
			}
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
	} else if len(x.keys) == 0 {
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
// rebuilding the mask over the doubled span.
func (x *ItemIndex) grow() {
	oldKeys, oldSlots := x.keys, x.slots
	size := 2 * len(oldKeys)
	if size < minIndexCells {
		size = minIndexCells
	}
	x.keys, x.slots, x.present = make([]uint64, size), make([]int32, size), make([]uint16, 4*size)
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
		if word, bit, in := x.maskBit(k - 1); in {
			x.present[word] |= 1 << bit
		}
	}
}
