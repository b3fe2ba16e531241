// log.go holds the on-disk record framing and the recovery scan. The
// format (docs/STORAGE.md) is a flat stream of CRC-framed records:
//
//	[ crc32c uint32 | keyLen uint32 | valLen uint32 | flags byte | key | value ]
//
// all integers little-endian, the CRC covering everything after itself.
// flags bit 0 marks a tombstone (valLen is then 0); bit 1 marks a record
// that is not the last of its commit unit — more records of the same unit
// follow, and recovery applies none of them until the unit's last record
// (bit 1 clear) is read intact. A record with bit 1 clear that follows no
// open unit is a unit of its own, which is every record written before
// commit units existed. There is no segment header or footer, and a unit
// never straddles segments: a crash can only damage the final unit of the
// final segment, which the CRC detects and recovery truncates away.
package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
)

// recordHeaderSize is the fixed framing prefix: CRC + keyLen + valLen +
// flags.
const recordHeaderSize = 4 + 4 + 4 + 1

// maxKeyLen / maxValueLen bound record fields so a corrupt length cannot
// drive a giant allocation during recovery. Append enforces the same
// bounds, so every record written is one recovery accepts.
const (
	maxKeyLen   = 1 << 16
	maxValueLen = 1 << 26
)

const (
	flagTombstone = 1 << 0
	flagMore      = 1 << 1 // more records of this commit unit follow
)

// crcTable is the Castagnoli table shared by framing and recovery.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendRecord frames one record onto dst, leaving the CRC and the
// continuation flag for sealRecord.
func appendRecord(dst []byte, key string, value []byte, tombstone bool) []byte {
	var header [recordHeaderSize]byte
	binary.LittleEndian.PutUint32(header[4:], uint32(len(key)))
	binary.LittleEndian.PutUint32(header[8:], uint32(len(value)))
	if tombstone {
		header[12] = flagTombstone
	}
	dst = slices.Grow(dst, recordHeaderSize+len(key)+len(value))
	dst = append(dst, header[:]...)
	dst = append(dst, key...)
	return append(dst, value...)
}

// recordLens reads the key and value lengths of the record starting at
// rec[0].
func recordLens(rec []byte) (keyLen, valLen int) {
	return int(binary.LittleEndian.Uint32(rec[4:])), int(binary.LittleEndian.Uint32(rec[8:]))
}

// recordSize reads the framed size of the record starting at rec[0].
func recordSize(rec []byte) int {
	keyLen, valLen := recordLens(rec)
	return recordHeaderSize + keyLen + valLen
}

// sealRecord sets or clears rec's continuation flag and writes its CRC.
func sealRecord(rec []byte, more bool) {
	rec[12] &^= flagMore
	if more {
		rec[12] |= flagMore
	}
	binary.LittleEndian.PutUint32(rec, crc32.Checksum(rec[4:], crcTable))
}

// decodeRecord parses and CRC-checks one framed record.
func decodeRecord(rec []byte) (key string, value []byte, flags byte, err error) {
	if len(rec) < recordHeaderSize {
		return "", nil, 0, fmt.Errorf("%w: short record (%d bytes)", ErrCorrupt, len(rec))
	}
	if binary.LittleEndian.Uint32(rec) != crc32.Checksum(rec[4:], crcTable) {
		return "", nil, 0, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	if recordSize(rec) != len(rec) {
		return "", nil, 0, fmt.Errorf("%w: length mismatch", ErrCorrupt)
	}
	key, value, flags = recordFields(rec)
	return key, value, flags, nil
}

// recordFields splits a whole framed record without checking it.
func recordFields(rec []byte) (key string, value []byte, flags byte) {
	keyEnd := recordHeaderSize + int(binary.LittleEndian.Uint32(rec[4:]))
	return string(rec[recordHeaderSize:keyEnd]), rec[keyEnd:], rec[12]
}

// replayOp is one record of a commit unit recovery has not finished
// reading.
type replayOp struct {
	key       string
	entry     indexEntry
	tombstone bool
}

// replaySegment scans segment id sequentially, applying every intact
// commit unit to the index: a unit's records are held back until its last
// one is read. A framing or CRC failure — or the end of the file inside a
// unit — in the final segment is the torn tail of a crashed append, and
// the file is truncated back to the first record of the unit it hit;
// anywhere else the damage is surfaced as ErrCorrupt.
func (s *Store) replaySegment(id int, last bool) error {
	path := s.segPath(id)
	r, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	seg := &segment{id: id, path: path, r: r}
	s.segs[id] = seg

	br := bufio.NewReaderSize(r, 1<<20)
	var off int64       // start of the record being read
	var unit []replayOp // records of the open unit; it starts at seg.size
	header := make([]byte, recordHeaderSize)
	var body []byte
	for {
		if _, err := io.ReadFull(br, header); err != nil {
			if errors.Is(err, io.EOF) {
				if len(unit) > 0 {
					return s.truncateTail(seg, last, "commit unit cut short")
				}
				return nil // clean end of segment
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return s.truncateTail(seg, last, "torn header")
			}
			return fmt.Errorf("storage: %w", err)
		}
		keyLen := int(binary.LittleEndian.Uint32(header[4:]))
		valLen := int(binary.LittleEndian.Uint32(header[8:]))
		if keyLen < 0 || keyLen > maxKeyLen || valLen < 0 || valLen > maxValueLen {
			return s.truncateTail(seg, last, "implausible lengths")
		}
		if cap(body) < keyLen+valLen {
			body = make([]byte, keyLen+valLen)
		}
		body = body[:keyLen+valLen]
		if _, err := io.ReadFull(br, body); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return s.truncateTail(seg, last, "torn body")
			}
			return fmt.Errorf("storage: %w", err)
		}
		crc := crc32.Checksum(header[4:], crcTable)
		crc = crc32.Update(crc, crcTable, body)
		if binary.LittleEndian.Uint32(header) != crc {
			return s.truncateTail(seg, last, "CRC mismatch")
		}

		size := int64(recordHeaderSize + keyLen + valLen)
		unit = append(unit, replayOp{
			key:       string(body[:keyLen]),
			entry:     indexEntry{seg: id, off: off, size: size, keyLen: keyLen, valLen: valLen},
			tombstone: header[12]&flagTombstone != 0,
		})
		off += size
		if header[12]&flagMore != 0 {
			continue
		}
		for _, op := range unit {
			if old, ok := s.index[op.key]; ok {
				s.liveBytes -= old.size
			}
			if op.tombstone {
				delete(s.index, op.key)
			} else {
				s.index[op.key] = op.entry
				s.liveBytes += op.entry.size
			}
		}
		s.recovered += uint64(len(unit))
		unit = unit[:0]
		seg.size = off
	}
}

// truncateTail handles a commit unit of seg that cannot be read whole;
// seg.size is where that unit starts. In the final segment it is a torn
// append — cut it off and continue; elsewhere it is corruption the caller
// must hear about.
func (s *Store) truncateTail(seg *segment, last bool, reason string) error {
	if !last {
		return fmt.Errorf("%w: segment %d, commit unit at offset %d: %s", ErrCorrupt, seg.id, seg.size, reason)
	}
	fi, err := os.Stat(seg.path)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	s.truncatedBytes += fi.Size() - seg.size
	if err := os.Truncate(seg.path, seg.size); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	return nil
}
