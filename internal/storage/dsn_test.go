package storage

import (
	"errors"
	"path/filepath"
	"testing"
)

func TestParseDSN(t *testing.T) {
	cases := []struct {
		dsn  string
		path string
		sync SyncMode
	}{
		{"file:/var/lib/mc", "/var/lib/mc", SyncGroup},
		{"file:rel/dir", "rel/dir", SyncGroup},
		{"file:/d?sync=group", "/d", SyncGroup},
		{"file:/d?sync=always", "/d", SyncAlways},
		{"file:/d?sync=none", "/d", SyncNone},
	}
	for _, c := range cases {
		opts, err := ParseDSN(c.dsn)
		if err != nil {
			t.Fatalf("ParseDSN(%q): %v", c.dsn, err)
		}
		if opts.Path != c.path || opts.Sync != c.sync {
			t.Fatalf("ParseDSN(%q) = {Path:%q Sync:%v}, want {%q %v}",
				c.dsn, opts.Path, opts.Sync, c.path, c.sync)
		}
	}
}

func TestParseDSNErrors(t *testing.T) {
	for _, dsn := range []string{
		"",                  // no scheme
		"file",              // no separator
		"redis:/d",          // unknown scheme
		"file:",             // empty path
		"file:/d?sync=slow", // unknown sync mode
		"file:/d?nope=1",    // unknown parameter
		"file:/d?sync=%zz",  // unparseable query
	} {
		if _, err := ParseDSN(dsn); !errors.Is(err, ErrBadOptions) {
			t.Fatalf("ParseDSN(%q) = %v, want ErrBadOptions", dsn, err)
		}
	}
}

func TestOpenDSN(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	opts, err := ParseDSN("file:" + dir + "?sync=none")
	if err != nil {
		t.Fatalf("ParseDSN: %v", err)
	}
	st, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	if err := st.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	v, ok, err := st.Get("k")
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
	if st.Stats().Sync != "none" {
		t.Fatalf("Sync mode = %q, want none", st.Stats().Sync)
	}
	if _, err := ParseDSN("bogus"); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("ParseDSN(bogus) = %v, want ErrBadOptions", err)
	}
}
