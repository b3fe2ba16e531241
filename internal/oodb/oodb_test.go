package oodb

import (
	"testing"
	"testing/quick"
)

func TestDefaults(t *testing.T) {
	db := New(Config{})
	if db.NumObjects() != DefaultNumObjects {
		t.Fatalf("NumObjects = %d, want %d", db.NumObjects(), DefaultNumObjects)
	}
	if AttrSize != 85 {
		t.Fatalf("AttrSize = %d, want 1024/12 = 85", AttrSize)
	}
	if NumAttrs != 12 {
		t.Fatalf("NumAttrs = %d", NumAttrs)
	}
}

func TestCustomPopulation(t *testing.T) {
	db := New(Config{NumObjects: 50})
	if db.NumObjects() != 50 {
		t.Fatalf("NumObjects = %d", db.NumObjects())
	}
	if !db.ValidOID(49) || db.ValidOID(50) {
		t.Fatal("ValidOID boundary wrong")
	}
}

func TestWriteBumpsVersions(t *testing.T) {
	db := New(Config{NumObjects: 10})
	if db.ObjectVersion(3) != 0 || db.AttrVersion(3, 2) != 0 {
		t.Fatal("fresh object has non-zero version")
	}
	v := db.Write(3, 2)
	if v != 1 {
		t.Fatalf("Write returned %d, want 1", v)
	}
	if db.ObjectVersion(3) != 1 || db.AttrVersion(3, 2) != 1 {
		t.Fatal("versions not bumped")
	}
	if db.AttrVersion(3, 1) != 0 {
		t.Fatal("write leaked to another attribute")
	}
	db.Write(3, 1)
	if db.ObjectVersion(3) != 2 {
		t.Fatal("object version should count writes on any attribute")
	}
	if db.TotalWrites() != 2 {
		t.Fatalf("TotalWrites = %d", db.TotalWrites())
	}
}

func TestWriteIsolatedAcrossObjects(t *testing.T) {
	db := New(Config{NumObjects: 10})
	db.Write(1, 0)
	if db.ObjectVersion(2) != 0 {
		t.Fatal("write leaked to another object")
	}
}

func TestRelationshipsInRange(t *testing.T) {
	db := New(Config{NumObjects: 97, RelSeed: 0xdeadbeef})
	for i := 0; i < db.NumObjects(); i++ {
		for j := 0; j < NumRelAttrs; j++ {
			tgt := db.Relationship(OID(i), j)
			if !db.ValidOID(tgt) {
				t.Fatalf("relationship (%d,%d) -> invalid %d", i, j, tgt)
			}
			if tgt == OID(i) {
				t.Fatalf("relationship (%d,%d) is a self-loop", i, j)
			}
		}
	}
}

func TestRelationshipsDeterministic(t *testing.T) {
	a := New(Config{NumObjects: 100, RelSeed: 7})
	b := New(Config{NumObjects: 100, RelSeed: 7})
	for i := 0; i < 100; i++ {
		for j := 0; j < NumRelAttrs; j++ {
			if a.Relationship(OID(i), j) != b.Relationship(OID(i), j) {
				t.Fatalf("topology differs at (%d,%d) for same seed", i, j)
			}
		}
	}
}

func TestInvalidAccessPanics(t *testing.T) {
	db := New(Config{NumObjects: 5})
	cases := []func(){
		func() { db.Write(5, 0) },
		func() { db.Write(0, NumAttrs) },
		func() { db.ObjectVersion(100) },
		func() { db.AttrVersion(0, 200) },
		func() { db.Relationship(0, -1) },
		func() { db.Relationship(0, NumRelAttrs) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestAttrIDHelpers(t *testing.T) {
	if !AttrID(11).Valid() || AttrID(12).Valid() {
		t.Fatal("Valid boundary wrong")
	}
}

func TestItemSizes(t *testing.T) {
	if ObjectItem(3).Size() != ObjectSize {
		t.Fatal("object item size")
	}
	if AttrItem(3, 1).Size() != AttrSize {
		t.Fatal("attr item size")
	}
}

func TestItemPredicates(t *testing.T) {
	o := ObjectItem(7)
	if !o.IsObject() || o.OID != 7 {
		t.Fatalf("ObjectItem: %v", o)
	}
	a := AttrItem(7, 4)
	if a.IsObject() || a.Attr != 4 {
		t.Fatalf("AttrItem: %v", a)
	}
	if o.String() == "" || a.String() == "" || o.String() == a.String() {
		t.Fatal("String() representations not distinct")
	}
}

func TestItemAsMapKey(t *testing.T) {
	m := map[Item]int{}
	m[ObjectItem(1)] = 1
	m[AttrItem(1, 0)] = 2
	m[AttrItem(1, 1)] = 3
	if len(m) != 3 {
		t.Fatalf("map collapsed distinct items: %v", m)
	}
}

// Property: object version always equals the sum of its attribute versions.
func TestQuickVersionConsistency(t *testing.T) {
	f := func(ops []uint16) bool {
		db := New(Config{NumObjects: 16})
		for _, op := range ops {
			oid := OID(op % 16)
			attr := AttrID((op / 16) % NumAttrs)
			db.Write(oid, attr)
		}
		var total uint64
		for i := 0; i < 16; i++ {
			var sum uint64
			for a := 0; a < NumAttrs; a++ {
				sum += db.AttrVersion(OID(i), AttrID(a))
			}
			if sum != db.ObjectVersion(OID(i)) {
				return false
			}
			total += sum
		}
		return total == db.TotalWrites()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
