package experiment

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

func tierConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Seed: 1, NumObjects: 400, NumClients: 4, Days: 0.05,
		Granularity: core.HybridCaching, UpdateProb: 0.1,
		ServerBufferRatio: 0.05,
		StorageDSN:        "file:" + t.TempDir() + "?sync=none",
	}
}

// TestRunWithStorageTier: a DSN-configured run stages buffer misses
// through a real on-disk tier and reports the traffic in TierStats; the
// simulated measurements are byte-identical to the same run without a
// tier (the tier is a measured side effect, not a model change).
func TestRunWithStorageTier(t *testing.T) {
	cfg := tierConfig(t)
	res := Run(cfg)
	tier := res.StorageTier
	if tier.DSN != cfg.StorageDSN {
		t.Fatalf("TierStats.DSN = %q, want %q", tier.DSN, cfg.StorageDSN)
	}
	if tier.Puts == 0 {
		t.Fatal("no objects materialized in the tier")
	}
	if tier.Errors != 0 {
		t.Fatalf("tier errors: %d", tier.Errors)
	}
	if tier.Keys != int(tier.Puts) {
		t.Fatalf("tier keys %d != puts %d (cold per-run directory must start empty)",
			tier.Keys, tier.Puts)
	}
	if tier.DiskBytes <= 0 {
		t.Fatalf("DiskBytes = %d, want > 0", tier.DiskBytes)
	}
	if tier.PutP50ms <= 0 || tier.PutP99ms < tier.PutP50ms {
		t.Fatalf("put latency summary inconsistent: p50 %g, p99 %g",
			tier.PutP50ms, tier.PutP99ms)
	}

	// The same config without the tier must produce identical simulated
	// measurements — only TierStats and the server staging counters differ.
	plain := cfg
	plain.StorageDSN = ""
	want := Run(plain)
	got := res
	got.StorageTier = TierStats{}
	got.Server.StorageGets, got.Server.StoragePuts, got.Server.StorageErrors = 0, 0, 0
	got.Config.StorageDSN = ""
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("storage tier perturbed simulated results:\n%+v\nvs\n%+v", got, want)
	}
}

// TestRunWithStorageTierDeterministic: rerunning the same config hits the
// same tier counters — the per-run directory is wiped before open, so a
// replay never sees a warm tier.
func TestRunWithStorageTierDeterministic(t *testing.T) {
	cfg := tierConfig(t)
	a, b := Run(cfg).StorageTier, Run(cfg).StorageTier
	if a.Gets != b.Gets || a.Puts != b.Puts || a.Keys != b.Keys || a.DiskBytes != b.DiskBytes {
		t.Fatalf("tier counters diverged across reruns:\n%+v\nvs\n%+v", a, b)
	}
}

// TestBufferRatioSizesBuffer: ServerBufferRatio scales the buffer with
// the database, to the nearest object and never below one; unset, the
// buffer is Table 1's 25%.
func TestBufferRatioSizesBuffer(t *testing.T) {
	for _, c := range []struct {
		cfg  Config
		want int
	}{
		{Config{NumObjects: 1000, ServerBufferRatio: 0.05}, 50},
		{Config{NumObjects: 1000, ServerBufferRatio: 0.0504}, 50},
		{Config{NumObjects: 1000, ServerBufferRatio: 0.0001}, 1},
		{Config{NumObjects: 1000}, 250},
	} {
		if got := Defaults(c.cfg).ServerBufferObjects(); got != c.want {
			t.Fatalf("ratio %g of %d objects: buffer %d, want %d",
				c.cfg.ServerBufferRatio, c.cfg.NumObjects, got, c.want)
		}
	}
}

// TestStorageScenarioOptions pins the storage-tier knobs: values applied
// through Defaults, conflicts and ranges named by Config.Validate.
func TestStorageScenarioOptions(t *testing.T) {
	cfg := Defaults(Config{
		NumObjects:        5000,
		ServerBufferRatio: 0.1,
		StorageDSN:        "file:/tmp/tier?sync=none",
		StorageObjects:    100,
		MemBufferObjects:  10,
	})
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.ServerBufferObjects() != 500 {
		t.Fatalf("ratio not folded into the buffer: %d", cfg.ServerBufferObjects())
	}

	cases := []struct {
		name string
		err  error
		want error
	}{
		{"ratio above 1", Config{ServerBufferRatio: 1.5}.Validate(), ErrOutOfRange},
		{"bad DSN", Config{StorageDSN: "redis:/d"}.Validate(), ErrBadSpec},
		{"storage on a fleet", Config{NumClients: 100, Cells: 4, StorageDSN: "file:/tmp/tier"}.Validate(), ErrConflict},
		{"bridged bad DSN", Config{StorageDSN: "file:"}.Validate(), ErrBadSpec},
		{"bridged ratio out of range", Config{ServerBufferRatio: 2}.Validate(), ErrOutOfRange},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.err == nil {
				t.Fatal("invalid config accepted")
			}
			if !errors.Is(c.err, c.want) {
				t.Fatalf("error %v does not wrap %v", c.err, c.want)
			}
		})
	}

	// A replayed manifest records the resolved config. The round trip must
	// validate.
	if err := Defaults(Config{NumObjects: 1000, ServerBufferRatio: 0.05}).Validate(); err != nil {
		t.Fatalf("resolved ratio round trip rejected: %v", err)
	}
}

// TestExp11QuickShape: the quick grid runs without a tier (hermetic CI
// smoke) and renders the full panel with tier columns dashed out.
func TestExp11QuickShape(t *testing.T) {
	rep := Exp11Quick(Config{Seed: 1, NumClients: 2, Days: 0.02})
	if len(rep.Tables) != 1 {
		t.Fatalf("quick grid has %d tables, want 1", len(rep.Tables))
	}
	if got := len(rep.Tables[0].Rows); got != 4 {
		t.Fatalf("quick grid has %d rows, want 4 (2 sizes x 2 ratios)", got)
	}
	for _, row := range rep.Tables[0].Rows {
		if row[len(row)-1] != "-" || row[len(row)-2] != "-" {
			t.Fatalf("quick grid row has live tier columns: %v", row)
		}
	}
	if len(rep.Notes) != 0 {
		t.Fatalf("quick grid emitted measured notes: %v", rep.Notes)
	}
	if !strings.Contains(rep.String(), "database size x server buffer") {
		t.Fatalf("table title missing: %s", rep.String())
	}
}
