// file.go is the persistent Store backend: the in-memory engine of
// memory.go with a write-through persistence tier on internal/storage's
// log-structured engine, so a mccached restart recovers the origin's
// version counters, the lease estimators' write histories, and every
// session's cached leases (docs/STORAGE.md).
//
// Persistence is write-through and per-request atomic: everything one
// request changes — an origin write's version counters and estimator
// streams, every lease a fetch installs, every lease an invalidation
// drops — lands in the log as one commit unit (storage.Batch) behind one
// durability wait, and recovery replays each unit whole or not at all.
// Origin writes enter the log in the order they were applied. Leases are
// judged on the wall clock anchored at the store's
// FIRST boot (the epoch persisted in the meta record), so a lease granted
// before a restart keeps expiring through the downtime — restart never
// extends validity.
//
// The log carries five record families, all JSON-valued:
//
//	m:config          store identity: schema config + boot epoch
//	v:<oid>           origin version counters (object + per-attribute)
//	sa:<oid>:<attr>   attribute-grain write-stream estimator state
//	so:<oid>          object-grain write-stream estimator state
//	e:<cid>:<oid>:<a> one session's cached lease for one unit (a=255: object)
//
// Cache entries persist until overwritten or invalidated; an entry evicted
// by the replacement policy stays in the log and may become resident again
// after a restart (recovery re-installs entries through the normal
// byte-budgeted insert path, so capacity still binds).
package serve

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/oodb"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/workload"
)

// fileMeta is the persisted store identity: the schema-shaping
// configuration (a reopen with different values would mis-key every
// record) and the wall-clock epoch of the first boot.
type fileMeta struct {
	Granularity string  `json:"granularity"`
	Policy      string  `json:"policy"`
	NumObjects  int     `json:"num_objects"`
	RelSeed     uint64  `json:"rel_seed"`
	Beta        float64 `json:"beta"`
	FixedLease  float64 `json:"fixed_lease_s"`
	EpochUnixNS int64   `json:"epoch_unix_ns"`
}

// fileVersions is the persisted per-object origin state.
type fileVersions struct {
	Version uint64                `json:"version"`
	Attrs   [oodb.NumAttrs]uint64 `json:"attrs"`
}

// File is the persistent Store: every read-path call delegates to the
// embedded in-memory engine; mutations additionally write through to the
// log before returning.
//
// A request changes memory before its record is durable, so a failed
// append or fsync leaves memory ahead of what a restart recovers, and
// after a failed fsync the kernel may have dropped the dirty pages for
// good. The store then fails closed: it keeps the first persist error and
// returns it from every later Read, Fetch, Write, Invalidate, Renew and
// Lease; Stats keeps answering and /healthz answers 503. A request running
// concurrently with the failing one can still see its unlogged state:
// only logging before applying would close that window.
type File struct {
	*Memory
	log *storage.Store
	// dsn is the DSN Stats reports, its path cut to the final element:
	// stats consumers learn which store served the run, not the server's
	// filesystem layout.
	dsn    string
	broken atomic.Pointer[error] // the first persist error, once there is one
}

const metaKey = "m:config"

// openFileDSN opens a "file:<path>?sync=<mode>" DSN (storage.ParseDSN's
// grammar) for Open.
func openFileDSN(dsn string, cfg Config) (Store, error) {
	opts, err := storage.ParseDSN(dsn)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return NewFile(opts.Path, opts.Sync, cfg)
}

// NewFile opens (or recovers) a persistent store rooted at path. A fresh
// path initializes the log with the configuration's identity; an existing
// one must have been created with the same granularity, policy, database
// size, relationship seed, and lease parameters, and is replayed into the
// in-memory engine before the store accepts requests.
func NewFile(path string, mode storage.SyncMode, cfg Config) (*File, error) {
	log, err := storage.Open(storage.Options{Path: path, Sync: mode})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	f, err := newFileOver(log, cfg)
	if err != nil {
		log.Close()
		return nil, err
	}
	f.dsn = fmt.Sprintf("file:…/%s?sync=%s", filepath.Base(path), mode)
	return f, nil
}

func newFileOver(log *storage.Store, cfg Config) (*File, error) {
	// Load or initialize the identity record; the epoch anchors the wall
	// clock across restarts so leases expire through downtime.
	raw, found, err := log.Get(metaKey)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	var meta fileMeta
	if found {
		if err := json.Unmarshal(raw, &meta); err != nil {
			return nil, fmt.Errorf("%w: corrupt meta record: %v", ErrBadRequest, err)
		}
	} else {
		meta.EpochUnixNS = time.Now().UnixNano()
	}
	if cfg.Clock == nil {
		epoch := meta.EpochUnixNS
		cfg.Clock = func() float64 {
			return float64(time.Now().UnixNano()-epoch) / 1e9
		}
	}
	m, err := NewMemory(cfg)
	if err != nil {
		return nil, err
	}
	effective := fileMeta{
		Granularity: m.gran.String(),
		Policy:      m.policy,
		NumObjects:  m.org.DB().NumObjects(),
		RelSeed:     cfg.RelSeed,
		Beta:        cfg.Beta,
		FixedLease:  m.fixed,
		EpochUnixNS: meta.EpochUnixNS,
	}
	if found && meta != effective {
		return nil, fmt.Errorf("%w: store was created as %+v, reopened as %+v",
			ErrBadRequest, meta, effective)
	}
	f := &File{Memory: m, log: log}
	if found {
		if err := f.recover(); err != nil {
			return nil, err
		}
	} else {
		var b storage.Batch
		if err := putJSON(&b, metaKey, effective); err != nil {
			return nil, err
		}
		if err := f.apply(&b); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// recover replays the persisted records into the in-memory engine: origin
// versions, estimator write streams, then session leases (sorted by key so
// replacement state rebuilds deterministically for a given log).
func (f *File) recover() error {
	type kv struct {
		key string
		val []byte
	}
	var entries []kv
	now := f.clock()
	err := f.log.Scan("", func(key string, val []byte) bool {
		entries = append(entries, kv{key, append([]byte(nil), val...)})
		return true
	})
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })

	batches := make(map[int][]core.BatchEntry)
	var clients []int
	for _, e := range entries {
		switch {
		case strings.HasPrefix(e.key, "v:"):
			oid, ok := parseOID(e.key[len("v:"):])
			var fv fileVersions
			if !ok || json.Unmarshal(e.val, &fv) != nil || !f.org.DB().ValidOID(oid) {
				return fmt.Errorf("%w: bad version record %q", ErrBadRequest, e.key)
			}
			f.org.DB().RestoreVersions(oid, fv.Version, fv.Attrs)
		case strings.HasPrefix(e.key, "sa:"), strings.HasPrefix(e.key, "so:"):
			var it oodb.Item
			var ok bool
			if strings.HasPrefix(e.key, "sa:") {
				it, ok = parseItemKey(e.key[len("sa:"):])
			} else {
				var oid oodb.OID
				if oid, ok = parseOID(e.key[len("so:"):]); ok {
					it = oodb.ObjectItem(oid)
				}
			}
			var st stats.InterArrivalState
			if !ok || json.Unmarshal(e.val, &st) != nil {
				return fmt.Errorf("%w: bad stream record %q", ErrBadRequest, e.key)
			}
			f.org.Estimator(it).RestoreStream(it, st)
		case strings.HasPrefix(e.key, "e:"):
			cidStr, itemStr, ok := strings.Cut(e.key[len("e:"):], ":")
			cid, cerr := strconv.Atoi(cidStr)
			it, iok := parseItemKey(itemStr)
			var entry core.Entry
			if !ok || cerr != nil || !iok || json.Unmarshal(e.val, &entry) != nil {
				return fmt.Errorf("%w: bad entry record %q", ErrBadRequest, e.key)
			}
			if _, seen := batches[cid]; !seen {
				clients = append(clients, cid)
			}
			batches[cid] = append(batches[cid], core.BatchEntry{Item: it, Entry: entry})
		}
	}
	for _, cid := range clients {
		s := f.session(cid)
		s.mu.Lock()
		for _, b := range batches[cid] {
			s.local.Stage(b.Item, b.Entry, true) // recovered, not consumed
		}
		s.local.Commit(now)
		s.mu.Unlock()
	}
	return nil
}

// putJSON adds one JSON-valued record to a request's commit unit.
func putJSON(b *storage.Batch, key string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	b.Put(key, raw)
	return nil
}

// apply commits a request's unit and waits for it to be durable.
func (f *File) apply(b *storage.Batch) error { return f.persistErr(f.log.Apply(b)) }

// persistErr passes a nil persist result through. It wraps an error and
// keeps the first one the store saw, which fails the store closed.
func (f *File) persistErr(err error) error {
	if err == nil {
		return nil
	}
	err = fmt.Errorf("serve: persist: %w", err)
	f.broken.CompareAndSwap(nil, &err)
	return err
}

// failed returns the first persist error, or nil while the store is whole.
func (f *File) failed() error {
	if err := f.broken.Load(); err != nil {
		return *err
	}
	return nil
}

// itemKey renders a cache unit as a log-key fragment: "<oid>:<attr>",
// with the WholeObject sentinel (255) for object units.
func itemKey(it oodb.Item) string {
	return strconv.FormatUint(uint64(it.OID), 10) + ":" + strconv.FormatUint(uint64(it.Attr), 10)
}

func parseItemKey(s string) (oodb.Item, bool) {
	oidStr, attrStr, ok := strings.Cut(s, ":")
	if !ok {
		return oodb.Item{}, false
	}
	oid, err1 := strconv.ParseUint(oidStr, 10, 32)
	attr, err2 := strconv.ParseUint(attrStr, 10, 8)
	if err1 != nil || err2 != nil {
		return oodb.Item{}, false
	}
	return oodb.Item{OID: oodb.OID(oid), Attr: oodb.AttrID(attr)}, true
}

func parseOID(s string) (oodb.OID, bool) {
	oid, err := strconv.ParseUint(s, 10, 32)
	return oodb.OID(oid), err == nil
}

func entryKey(clientID int, it oodb.Item) string {
	return "e:" + strconv.Itoa(clientID) + ":" + itemKey(it)
}

// Read implements Store: delegate, then write through any installed copy.
func (f *File) Read(clientID int, oid oodb.OID, attr oodb.AttrID, mode ReadMode) (ReadResult, error) {
	if err := f.failed(); err != nil {
		return ReadResult{}, err
	}
	res, err := f.Memory.Read(clientID, oid, attr, mode)
	if err != nil || !res.FromOrigin {
		return res, err
	}
	var b storage.Batch
	entry := core.Entry{Version: res.Version, ExpiresAt: res.ExpiresAt, FetchedAt: res.Now}
	if perr := putJSON(&b, entryKey(clientID, res.Item), entry); perr != nil {
		return res, perr
	}
	return res, f.apply(&b)
}

// Fetch implements Store: delegate, then write through the installed batch.
func (f *File) Fetch(clientID int, reads []workload.ReadOp) ([]FetchedItem, error) {
	if err := f.failed(); err != nil {
		return nil, err
	}
	now := f.clock()
	out, err := f.Memory.Fetch(clientID, reads)
	if err != nil {
		return out, err
	}
	var b storage.Batch
	for _, fi := range out {
		entry := core.Entry{Version: fi.Version, ExpiresAt: fi.ExpiresAt, FetchedAt: now}
		if perr := putJSON(&b, entryKey(clientID, fi.Item), entry); perr != nil {
			return out, perr
		}
	}
	return out, f.apply(&b)
}

// Write implements Store: delegate, then write through the origin's new
// version counters and the touched estimator streams. The snapshot is
// taken and appended to the log under the origin lock, so the log orders
// writers to one object the way the origin applied them and a restart
// never restores an older state than one it acknowledged; the durability
// wait happens after the lock is released.
func (f *File) Write(oid oodb.OID, attrs []oodb.AttrID) (uint64, error) {
	if err := f.failed(); err != nil {
		return 0, err
	}
	version, err := f.Memory.Write(oid, attrs)
	if err != nil {
		return version, err
	}
	seq, err := f.appendOrigin(oid, attrs)
	if err != nil {
		return version, err
	}
	return version, f.persistErr(f.log.Wait(seq))
}

// appendOrigin appends object oid's current origin state and the write
// streams of attrs as one commit unit, under the origin lock.
func (f *File) appendOrigin(oid oodb.OID, attrs []oodb.AttrID) (uint64, error) {
	f.org.mu.Lock()
	defer f.org.mu.Unlock()
	var b storage.Batch
	oidStr := strconv.FormatUint(uint64(oid), 10)
	fv := fileVersions{Version: f.org.DB().ObjectVersion(oid), Attrs: f.org.DB().AttrVersions(oid)}
	if err := putJSON(&b, "v:"+oidStr, fv); err != nil {
		return 0, err
	}
	for _, a := range attrs {
		it := oodb.AttrItem(oid, a)
		if st, ok := f.org.Estimator(it).StreamState(it); ok {
			if err := putJSON(&b, "sa:"+itemKey(it), st); err != nil {
				return 0, err
			}
		}
	}
	obj := oodb.ObjectItem(oid)
	if st, ok := f.org.Estimator(obj).StreamState(obj); ok {
		if err := putJSON(&b, "so:"+oidStr, st); err != nil {
			return 0, err
		}
	}
	seq, err := f.log.Append(&b)
	return seq, f.persistErr(err)
}

// Invalidate implements Store: delegate, then drop the persisted leases.
func (f *File) Invalidate(clientID int, oid oodb.OID, attr oodb.AttrID) (int, error) {
	if err := f.failed(); err != nil {
		return 0, err
	}
	removed, err := f.Memory.Invalidate(clientID, oid, attr)
	if err != nil {
		return removed, err
	}
	units, err := f.units(oid, attr)
	if err != nil {
		return removed, err
	}
	var clients []int
	if clientID < 0 {
		f.mu.RLock()
		for cid := range f.sessions {
			clients = append(clients, cid)
		}
		f.mu.RUnlock()
	} else {
		clients = []int{clientID}
	}
	var b storage.Batch
	for _, cid := range clients {
		for _, it := range units {
			if key := entryKey(cid, it); f.log.Has(key) {
				b.Delete(key)
			}
		}
	}
	return removed, f.apply(&b)
}

// Renew implements Store: delegate, then write through the refreshed lease.
func (f *File) Renew(clientID int, oid oodb.OID, attr oodb.AttrID) (LeaseInfo, error) {
	if err := f.failed(); err != nil {
		return LeaseInfo{}, err
	}
	info, err := f.Memory.Renew(clientID, oid, attr)
	if err != nil || !info.Cached {
		return info, err
	}
	var b storage.Batch
	entry := core.Entry{Version: info.Version, ExpiresAt: info.ExpiresAt, FetchedAt: info.Now}
	if perr := putJSON(&b, entryKey(clientID, core.CoverItem(f.gran, oid, attr)), entry); perr != nil {
		return info, perr
	}
	return info, f.apply(&b)
}

// Lease implements Store: delegate, unless the store has failed closed.
func (f *File) Lease(clientID int, oid oodb.OID, attr oodb.AttrID) (LeaseInfo, error) {
	if err := f.failed(); err != nil {
		return LeaseInfo{}, err
	}
	return f.Memory.Lease(clientID, oid, attr)
}

// Stats implements Store, adding the persistent tier's identity.
func (f *File) Stats() Stats {
	st := f.Memory.Stats()
	st.Backend = "file"
	st.DSN = f.dsn
	st.DiskBytes = f.log.DiskBytes()
	return st
}

// Register implements Store: the serve.* gauges plus the storage engine's
// instruments (storage.* latency histograms and size gauges).
func (f *File) Register(reg *obs.Registry) {
	f.Memory.Register(reg)
	f.log.Register(reg)
}

// Storage exposes the underlying engine (stats endpoints, tests).
func (f *File) Storage() *storage.Store { return f.log }

// Close flushes and closes the persistence tier. The store must not be
// used afterwards.
func (f *File) Close() error { return f.log.Close() }
