package replacement

import (
	"testing"

	"repro/internal/oodb"
)

// FuzzParse checks Parse never panics, that accepted specs produce
// policies whose Name round-trips through Parse again, and that an accepted
// spec followed by trailing input is rejected.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"lru", "lru-3", "lru-0", "lrd", "mean", "win-10", "win-x",
		"ewma-0.5", "ewma-1.5", "fifo", "clock", "random:7", "", "lfu",
		"ewma--1", "win-99999", "lru-999999999999999999999",
		"lru-3.5", "ewma-0.5x", "win-10abc", "random:7x", "ewma-0.5 ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		factory, err := Parse(spec)
		if err != nil {
			return
		}
		if _, err := Parse(spec + "x"); err == nil {
			t.Fatalf("Parse(%q) succeeded: trailing input after accepted spec %q", spec+"x", spec)
		}
		p := factory()
		if p == nil {
			t.Fatalf("Parse(%q) returned nil policy", spec)
		}
		name := p.Name()
		if name == "random" {
			return // random's spec embeds a seed the name drops
		}
		if _, err := Parse(name); err != nil {
			t.Fatalf("Name %q of accepted spec %q does not re-parse: %v", name, spec, err)
		}
	})
}

// FuzzDifferentialTrace replays a byte-encoded operation trace against an
// indexed policy and its retained scanCore reference twin in lockstep,
// requiring identical victim choices throughout. Each byte encodes one
// operation on a small item universe: insert, access, remove, or a victim
// request (Victim plus eviction, or a bulk Victims(now, k) compared whole).
// The low bits step time by 0, 1 or 2, or back by 1, so the fuzzer can
// produce exact ties (zero gaps), long idle spans and a clock that steps
// backwards, as the live store's can.
func FuzzDifferentialTrace(f *testing.F) {
	f.Add(0, []byte{})
	f.Add(1, []byte{0x00, 0x41, 0x82, 0xc3, 0x04, 0x45})
	f.Add(3, []byte{0x10, 0x10, 0x10, 0x10, 0xf0, 0xf1}) // repeated same-time hits
	f.Add(5, []byte{0x01, 0x42, 0x83, 0xc4, 0x05, 0x46, 0x87, 0xc8})
	f.Add(7, []byte{0xff, 0xfe, 0xfd, 0xfc, 0xfb, 0xfa, 0xf9, 0xf8})
	f.Add(9, []byte{0x20, 0x60, 0xa0, 0xe0, 0x21, 0x61, 0xa1, 0xe1, 0x22})
	f.Add(11, []byte{0x33, 0x77, 0xbb, 0xff, 0x00, 0x44, 0x88, 0xcc})
	f.Add(13, []byte{0x0f, 0x4f, 0x8f, 0xcf, 0x1f, 0x5f, 0x9f, 0xdf})
	f.Fuzz(func(t *testing.T, specIdx int, trace []byte) {
		if specIdx < 0 {
			specIdx = -specIdx
		}
		spec := differentialSpecs[specIdx%len(differentialSpecs)]
		factory, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		opt := factory()
		ref, err := newReferencePolicy(spec)
		if err != nil {
			t.Fatalf("newReferencePolicy(%q): %v", spec, err)
		}
		const universe = 12
		now := 0.0
		resident := make(map[oodb.Item]bool)
		for _, b := range trace {
			it := oodb.ObjectItem(oodb.OID(int(b>>2) % universe))
			now += [4]float64{0, 1, 2, -1}[b&0x03] // 0 keeps time still: exact ties
			switch op := b >> 6; op {
			case 0:
				opt.OnInsert(it, now)
				ref.OnInsert(it, now)
				resident[it] = true
			case 1:
				// OnAccess and Remove require tracked items; fold the
				// untracked case into an insert so every byte does work.
				if !resident[it] {
					opt.OnInsert(it, now)
					ref.OnInsert(it, now)
					resident[it] = true
					break
				}
				opt.OnAccess(it, now)
				ref.OnAccess(it, now)
			case 2:
				if !resident[it] {
					break
				}
				opt.Remove(it)
				ref.Remove(it)
				delete(resident, it)
			case 3:
				if b&0x20 != 0 {
					// Bulk: Victims(now, k) for k in 0..7, whole slices.
					k := int(b>>2) & 0x07
					vo, vr := opt.Victims(now, k), ref.Victims(now, k)
					if len(vo) != len(vr) {
						t.Fatalf("%s: Victims(%d) at t=%v: opt %v, ref %v", spec, k, now, vo, vr)
					}
					for i := range vo {
						if vo[i] != vr[i] {
							t.Fatalf("%s: Victims(%d)[%d] at t=%v: opt %v, ref %v", spec, k, i, now, vo, vr)
						}
					}
					break
				}
				vo, oko := opt.Victim(now)
				vr, okr := ref.Victim(now)
				if oko != okr || vo != vr {
					t.Fatalf("%s: victim mismatch at t=%v: opt=(%v,%v) ref=(%v,%v)",
						spec, now, vo, oko, vr, okr)
				}
				if oko {
					opt.Remove(vo)
					ref.Remove(vr)
					delete(resident, vo)
				}
			}
			if opt.Len() != ref.Len() {
				t.Fatalf("%s: length mismatch: opt=%d ref=%d", spec, opt.Len(), ref.Len())
			}
		}
		// Drain both caches, comparing the full eviction order.
		for opt.Len() > 0 {
			vo, _ := opt.Victim(now)
			vr, _ := ref.Victim(now)
			if vo != vr {
				t.Fatalf("%s: drain mismatch at t=%v: opt=%v ref=%v", spec, now, vo, vr)
			}
			opt.Remove(vo)
			ref.Remove(vr)
			now += 1.0
		}
	})
}
