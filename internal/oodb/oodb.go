// Package oodb models the object-oriented database the paper's server
// hosts: a single class Root with 2000 objects, each carrying 9 primitive
// attributes and 3 one-to-one relationships to other Root objects, 1024
// bytes per object (§4 of the paper).
//
// Only metadata matters to the simulation — per-item versions (for the
// perfect-knowledge error oracle), write timestamps (for refresh-time
// estimation), and sizes (for message and transfer-time computation) — so
// attribute "values" are represented by their version counters rather than
// by payload bytes.
package oodb

import "fmt"

// Schema constants from §4 of the paper.
const (
	// DefaultNumObjects is the database population: 2000 Root objects.
	DefaultNumObjects = 2000
	// NumPrimAttrs is the number of primitive-valued attributes per object.
	NumPrimAttrs = 9
	// NumRelAttrs is the number of one-to-one relationships per object.
	NumRelAttrs = 3
	// NumAttrs is the total attribute count (primitive + relationship).
	NumAttrs = NumPrimAttrs + NumRelAttrs
	// ObjectSize is the size of one object in bytes.
	ObjectSize = 1024
	// AttrSize is the size of a single attribute value in bytes. The paper
	// gives only the 1024-byte object size; we divide it evenly across the
	// 12 attributes (9 primitive + 3 relationship slots).
	AttrSize = ObjectSize / NumAttrs
)

// OID identifies an object in the database.
type OID uint32

// AttrID identifies an attribute of class Root: 0..8 are primitive,
// 9..11 are relationships.
type AttrID uint8

// Valid reports whether a is a legal attribute index.
func (a AttrID) Valid() bool { return a < NumAttrs }

// object holds per-object simulation metadata.
type object struct {
	attrVersion [NumAttrs]uint64 // writes seen per attribute
	version     uint64           // writes seen on the object (any attribute)
	rels        [NumRelAttrs]OID // one-to-one relationship targets
}

// Database is the server-resident object store.
type Database struct {
	objects []object
	writes  uint64 // total attribute writes applied
}

// Config parameterizes database construction.
type Config struct {
	// NumObjects is the object population (DefaultNumObjects if zero).
	NumObjects int
	// RelSeed seeds the pseudo-random relationship topology. Relationships
	// form a deterministic "shifted" pattern so navigational queries touch
	// distinct related objects without needing an RNG here.
	RelSeed uint64
}

// New builds a database with the given configuration.
func New(cfg Config) *Database {
	n := cfg.NumObjects
	if n <= 0 {
		n = DefaultNumObjects
	}
	db := &Database{objects: make([]object, n)}
	// Deterministic relationship topology: object i's j-th relationship
	// points to (i + stride_j) mod n, with strides derived from the seed.
	// Strides lie in [1, n-1] so no relationship is a self-loop (except in
	// the degenerate single-object database).
	for j := 0; j < NumRelAttrs; j++ {
		stride := 0
		if n > 1 {
			stride = int((cfg.RelSeed>>(8*uint(j)))%uint64(n-1)) + 1
		}
		for i := range db.objects {
			db.objects[i].rels[j] = OID((i + stride) % n)
		}
	}
	return db
}

// NumObjects returns the object population.
func (db *Database) NumObjects() int { return len(db.objects) }

// ValidOID reports whether the oid addresses an existing object.
func (db *Database) ValidOID(oid OID) bool { return int(oid) < len(db.objects) }

func (db *Database) mustObject(oid OID) *object {
	if !db.ValidOID(oid) {
		panic(fmt.Sprintf("oodb: invalid oid %d (population %d)", oid, len(db.objects)))
	}
	return &db.objects[oid]
}

// Relationship returns the target of oid's rel-th relationship (rel in
// [0, NumRelAttrs)).
func (db *Database) Relationship(oid OID, rel int) OID {
	if rel < 0 || rel >= NumRelAttrs {
		panic(fmt.Sprintf("oodb: invalid relationship index %d", rel))
	}
	return db.mustObject(oid).rels[rel]
}

// Write applies a write to attribute attr of object oid, bumping both the
// attribute version and the object version. Returns the new object version.
func (db *Database) Write(oid OID, attr AttrID) uint64 {
	if !attr.Valid() {
		panic(fmt.Sprintf("oodb: invalid attr %d", attr))
	}
	o := db.mustObject(oid)
	o.attrVersion[attr]++
	o.version++
	db.writes++
	return o.version
}

// ObjectVersion returns the number of writes applied to any attribute of
// oid. The error oracle compares this against a client's cached version
// under object-granularity caching.
func (db *Database) ObjectVersion(oid OID) uint64 {
	return db.mustObject(oid).version
}

// AttrVersion returns the number of writes applied to (oid, attr). The
// error oracle compares this against a client's cached version under
// attribute- and hybrid-granularity caching.
func (db *Database) AttrVersion(oid OID, attr AttrID) uint64 {
	if !attr.Valid() {
		panic(fmt.Sprintf("oodb: invalid attr %d", attr))
	}
	return db.mustObject(oid).attrVersion[attr]
}

// TotalWrites returns the number of attribute writes applied database-wide.
func (db *Database) TotalWrites() uint64 { return db.writes }

// RestoreVersions overwrites oid's version counters with a previously
// snapshotted state — the recovery path of a persistent tier replaying its
// log. The database-wide write total is adjusted by the object-version
// delta, preserving the invariant that TotalWrites equals the sum of
// object versions.
func (db *Database) RestoreVersions(oid OID, version uint64, attrVersions [NumAttrs]uint64) {
	o := db.mustObject(oid)
	db.writes += version - o.version
	o.version = version
	o.attrVersion = attrVersions
}

// AttrVersions returns a copy of oid's per-attribute version counters, the
// companion snapshot call to RestoreVersions.
func (db *Database) AttrVersions(oid OID) [NumAttrs]uint64 {
	return db.mustObject(oid).attrVersion
}
