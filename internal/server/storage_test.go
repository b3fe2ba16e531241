package server

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/oodb"
)

// fakeTier records the staging traffic the server sends to its persistent
// tier and can inject failures.
type fakeTier struct {
	data map[string][]byte
	fail error
	gets int
	puts int
}

func (f *fakeTier) Get(key string) ([]byte, bool, error) {
	if f.fail != nil {
		return nil, false, f.fail
	}
	f.gets++
	v, ok := f.data[key]
	return v, ok, nil
}

func (f *fakeTier) Put(key string, value []byte) error {
	if f.fail != nil {
		return f.fail
	}
	f.puts++
	cp := make([]byte, len(value))
	copy(cp, value)
	f.data[key] = cp
	return nil
}

// TestStorageTierStaging: a buffer miss materializes the object in the
// tier on first touch (put) and finds it there once re-staged after
// eviction (get), with the counters surfacing in Stats.
func TestStorageTierStaging(t *testing.T) {
	tier := &fakeTier{data: map[string][]byte{}}
	k, s := newTestServer(t, Config{BufferObjects: 1, Storage: tier})
	// Alternate two objects through a one-object buffer: every access is a
	// buffer miss, so each object is staged twice.
	var reqs []Request
	for _, oid := range []int{1, 2, 1, 2} {
		reqs = append(reqs, Request{
			ClientID:    1,
			Granularity: core.ObjectCaching,
			Accesses:    reads(oid),
			Need:        reads(oid),
		})
	}
	serve(k, s, reqs...)
	st := s.Stats()
	if st.StoragePuts != 2 {
		t.Fatalf("StoragePuts = %d, want 2 (one materialization per object)", st.StoragePuts)
	}
	if st.StorageGets != 2 {
		t.Fatalf("StorageGets = %d, want 2 (one tier hit per re-staging)", st.StorageGets)
	}
	if st.StorageErrors != 0 {
		t.Fatalf("StorageErrors = %d, want 0", st.StorageErrors)
	}
	if len(tier.data) != 2 {
		t.Fatalf("tier holds %d keys, want 2", len(tier.data))
	}
	for _, key := range []string{"o:1", "o:2"} {
		v, ok := tier.data[key]
		if !ok {
			t.Fatalf("tier missing key %q (have %v)", key, tier.data)
		}
		if len(v) != oodb.ObjectSize {
			t.Fatalf("tier payload for %q is %dB, want %d", key, len(v), oodb.ObjectSize)
		}
	}
}

// TestStorageTierPayloadDeterministic: the staged payload is a pure
// function of the OID, so any two runs (or servers) materialize identical
// tier contents.
func TestStorageTierPayloadDeterministic(t *testing.T) {
	payload := func() []byte {
		tier := &fakeTier{data: map[string][]byte{}}
		k, s := newTestServer(t, Config{BufferObjects: 1, Storage: tier})
		serve(k, s, Request{
			ClientID: 1, Granularity: core.ObjectCaching,
			Accesses: reads(7), Need: reads(7),
		})
		return tier.data["o:7"]
	}
	a, b := payload(), payload()
	if len(a) == 0 || string(a) != string(b) {
		t.Fatalf("tier payload not deterministic: %d vs %d bytes", len(a), len(b))
	}
}

// TestStorageTierErrorsCounted: tier failures degrade to the modeled disk
// only — the request still completes — and are counted, not propagated.
func TestStorageTierErrorsCounted(t *testing.T) {
	tier := &fakeTier{data: map[string][]byte{}, fail: errors.New("disk full")}
	k, s := newTestServer(t, Config{BufferObjects: 1, Storage: tier})
	reply := serve(k, s, Request{
		ClientID: 1, Granularity: core.ObjectCaching,
		Accesses: reads(3), Need: reads(3),
	})[0]
	if len(reply.Items) != 1 {
		t.Fatalf("request failed under tier error: %+v", reply)
	}
	st := s.Stats()
	if st.StorageErrors != 1 || st.StoragePuts != 0 || st.StorageGets != 0 {
		t.Fatalf("error accounting off: %+v", st)
	}
}

// TestNoStorageTierByDefault: without a configured tier the server stats
// stay silent, preserving the paper-exact serving path.
func TestNoStorageTierByDefault(t *testing.T) {
	k, s := newTestServer(t, Config{})
	serve(k, s, Request{
		ClientID: 1, Granularity: core.ObjectCaching,
		Accesses: reads(1), Need: reads(1),
	})
	st := s.Stats()
	if st.StorageGets != 0 || st.StoragePuts != 0 || st.StorageErrors != 0 {
		t.Fatalf("tier counters moved without a tier: %+v", st)
	}
}
