// Package storage is a log-structured, file-backed key-value engine in the
// bitcask tradition: an append-only segment log on disk plus an in-memory
// hash index mapping every live key to its latest record's location. It is
// the persistence layer beneath the live serving store's "file:" backend
// and the simulator's disk tier (docs/STORAGE.md).
//
// Design points:
//
//   - Append-only segments. Writes never overwrite; a Put appends a
//     CRC-framed record to the active segment and repoints the index.
//     Sequential appends are what makes the <20 ms insert and <4 ms get
//     targets of ROADMAP.md reachable on commodity disks.
//   - Commit units. Every mutation is a Batch of records written with one
//     write(2) and replayed all or not at all; Put and Delete are batches
//     of one (commit.go).
//   - Group commit. Under SyncGroup (the default) the first writer that
//     finds no fsync in flight runs one at once; commits appended while it
//     runs share the next. SyncAlways gives every commit an fsync of its
//     own; SyncNone leaves durability to the OS.
//   - Crash recovery by log replay. Open scans every segment in order,
//     rebuilding the index; a torn tail (a commit unit cut off by a crash)
//     fails its CRC and is truncated away whole. Corruption anywhere but
//     the log tail is reported as ErrCorrupt, never silently skipped.
//   - Background compaction. When sealed segments accumulate enough
//     superseded records, a compactor rewrites the live ones and deletes
//     the garbage, bounding disk growth under update-heavy workloads.
//
// A Store is safe for concurrent use. Get runs under a read lock against
// concurrent appends; records in sealed segments are immutable.
package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Errors returned by the engine.
var (
	// ErrClosed marks operations on a closed store.
	ErrClosed = errors.New("storage: store is closed")
	// ErrCorrupt marks a CRC or framing failure outside the log tail —
	// data damage recovery must not paper over.
	ErrCorrupt = errors.New("storage: corrupt record")
	// ErrBadOptions marks an unusable Options value.
	ErrBadOptions = errors.New("storage: bad options")
	// ErrTooLarge marks a record whose key or value exceeds what recovery
	// accepts; Append refuses its whole commit unit.
	ErrTooLarge = errors.New("storage: record too large")
)

// SyncMode selects the durability discipline of a commit's Wait.
type SyncMode int

const (
	// SyncGroup batches concurrent writers into shared fsyncs (group
	// commit): every commit returns only after it is durable, but commits
	// appended while one fsync runs share the next.
	SyncGroup SyncMode = iota
	// SyncAlways shares nothing by design: a waiting commit runs an fsync
	// that covers only the log up to itself — one fsync per commit unit.
	SyncAlways
	// SyncNone never fsyncs; the OS flushes on its own schedule. A crash
	// may lose recent writes but never corrupts recovered state (the CRC
	// frame guards torn tails either way).
	SyncNone
)

// String renders the mode as its DSN spelling.
func (m SyncMode) String() string {
	switch m {
	case SyncGroup:
		return "group"
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("sync(%d)", int(m))
	}
}

// ParseSyncMode maps a DSN spelling to a SyncMode ("" selects SyncGroup).
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "", "group":
		return SyncGroup, nil
	case "always":
		return SyncAlways, nil
	case "none":
		return SyncNone, nil
	default:
		return 0, fmt.Errorf("%w: sync mode %q (want group|always|none)", ErrBadOptions, s)
	}
}

// Default engine parameters.
const (
	// DefaultSegmentBytes is the active-segment rotation threshold.
	DefaultSegmentBytes = 64 << 20
	// DefaultCompactGarbage is the superseded-bytes fraction of sealed
	// segments that triggers background compaction.
	DefaultCompactGarbage = 0.5
	// DefaultCompactMinBytes is the minimum sealed garbage before
	// compaction is worth the rewrite.
	DefaultCompactMinBytes = 1 << 20
)

// Options parameterizes Open.
type Options struct {
	// Path is the storage directory; it is created if absent. Segments
	// are files named seg-NNNNNNNN.log inside it.
	Path string
	// Sync selects the durability discipline (default SyncGroup).
	Sync SyncMode
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default DefaultSegmentBytes).
	SegmentBytes int64
	// CompactGarbage is the sealed-garbage fraction that triggers
	// background compaction (default DefaultCompactGarbage; <0 disables
	// automatic compaction).
	CompactGarbage float64
	// CompactMinBytes is the minimum sealed garbage in bytes before
	// automatic compaction fires (default DefaultCompactMinBytes).
	CompactMinBytes int64
	// Fsync overrides the file-sync primitive, for segment files and the
	// directory alike — the crash-test hook for injected fsync faults.
	// Nil uses (*os.File).Sync.
	Fsync func(*os.File) error
}

// indexEntry locates a key's latest record.
type indexEntry struct {
	seg    int   // segment ID
	off    int64 // record start offset
	size   int64 // full framed record size
	keyLen int
	valLen int
}

// segment is one on-disk log file. The active segment appends through w;
// every segment keeps a read handle for Get's positional reads.
type segment struct {
	id   int
	path string
	r    *os.File
	size int64
}

// Store is the engine instance. See the package comment for the
// concurrency model.
type Store struct {
	opts Options

	mu     sync.RWMutex // index + segment set + active-segment append state
	index  map[string]indexEntry
	segs   map[int]*segment
	active *segment
	closed bool

	liveBytes   int64 // bytes of records the index still points at
	sealedBytes int64 // total bytes in sealed segments
	sealedLive  int64 // live bytes residing in sealed segments

	// Commit state (commit.go). cmu is taken after mu, never before it,
	// and is not held across an fsync: the syncing flag is the sync slot.
	// Rotation replaces w with both locks held, so an appender reads it
	// under mu and a sync round under cmu; Close clears it once closed is
	// set and no appender is left.
	cmu      sync.Mutex
	synced   *sync.Cond    // signalled when a sync round ends
	w        *os.File      // append handle of the active segment; nil once closed
	appended uint64        // sequence of the last commit unit appended
	settled  uint64        // every commit up to here has its fsync outcome
	syncing  bool          // an fsync of w is in flight
	failed   []failedRange // commits whose fsync failed, ascending
	syncs    uint64

	compacting bool // single-flight guard for background compaction
	compactWG  sync.WaitGroup

	// Counters. gets is atomic (bumped on the read path, under RLock);
	// the rest are written under mu.
	gets           uint64 // atomic
	puts, dels     uint64
	compactions    uint64
	recovered      uint64 // records replayed by Open
	truncatedBytes int64  // torn-tail bytes discarded by Open

	// Latency histograms (nil when not registered). obsMu serializes
	// Observe calls: obs instruments are unsynchronized by design.
	obsMu  sync.Mutex
	obsGet *obs.Histogram
	obsPut *obs.Histogram
}

// Stats is a point-in-time snapshot of the engine.
type Stats struct {
	// Path is the storage directory.
	Path string `json:"path"`
	// Sync is the durability mode's DSN spelling.
	Sync string `json:"sync"`
	// Keys is the number of live keys.
	Keys int `json:"keys"`
	// Segments is the number of on-disk segment files.
	Segments int `json:"segments"`
	// DiskBytes is the total on-disk log size.
	DiskBytes int64 `json:"disk_bytes"`
	// LiveBytes is the portion of DiskBytes the index still references.
	LiveBytes int64 `json:"live_bytes"`
	// Puts/Gets/Deletes/Syncs/Compactions are cumulative operation counts;
	// Puts and Deletes count records, Commits the commit units that
	// carried them.
	Puts        uint64 `json:"puts"`
	Commits     uint64 `json:"commits"`
	Gets        uint64 `json:"gets"`
	Deletes     uint64 `json:"deletes"`
	Syncs       uint64 `json:"syncs"`
	Compactions uint64 `json:"compactions"`
	// RecoveredRecords is how many records Open replayed; TruncatedBytes
	// is how much torn tail it discarded.
	RecoveredRecords uint64 `json:"recovered_records"`
	TruncatedBytes   int64  `json:"truncated_bytes"`
}

// Open opens (or creates) the store at opts.Path, replaying every segment
// to rebuild the index. A torn record at the log tail is truncated away;
// corruption elsewhere returns ErrCorrupt.
func Open(opts Options) (*Store, error) {
	if opts.Path == "" {
		return nil, fmt.Errorf("%w: empty path", ErrBadOptions)
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.CompactGarbage == 0 {
		opts.CompactGarbage = DefaultCompactGarbage
	}
	if opts.CompactMinBytes <= 0 {
		opts.CompactMinBytes = DefaultCompactMinBytes
	}
	if opts.Fsync == nil {
		opts.Fsync = (*os.File).Sync
	}
	if err := os.MkdirAll(opts.Path, 0o755); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	s := &Store{
		opts:  opts,
		index: make(map[string]indexEntry),
		segs:  make(map[int]*segment),
	}
	s.synced = sync.NewCond(&s.cmu)
	if err := s.recover(); err != nil {
		s.closeFiles()
		return nil, err
	}
	return s, nil
}

// segPath names segment id's file.
func (s *Store) segPath(id int) string {
	return filepath.Join(s.opts.Path, fmt.Sprintf("seg-%08d.log", id))
}

// recover scans the directory, replays every segment in ID order, and
// opens the highest segment for append (creating seg 0 on a fresh store).
func (s *Store) recover() error {
	names, err := filepath.Glob(filepath.Join(s.opts.Path, "seg-*.log"))
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	ids := make([]int, 0, len(names))
	for _, n := range names {
		var id int
		if _, err := fmt.Sscanf(filepath.Base(n), "seg-%08d.log", &id); err == nil {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)

	for i, id := range ids {
		last := i == len(ids)-1
		if err := s.replaySegment(id, last); err != nil {
			return err
		}
	}
	activeID := 0
	if len(ids) > 0 {
		activeID = ids[len(ids)-1]
	}
	if err := s.openActive(activeID, len(ids) == 0); err != nil {
		return err
	}
	s.recomputeSealed()
	return nil
}

// openActive opens segment id for append (creating it when create is set)
// and installs it as the active segment.
func (s *Store) openActive(id int, create bool) error {
	path := s.segPath(id)
	flags := os.O_WRONLY | os.O_APPEND
	if create {
		flags |= os.O_CREATE
	}
	w, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	seg := s.segs[id]
	if seg == nil {
		r, err := os.Open(path)
		if err != nil {
			w.Close()
			return fmt.Errorf("storage: %w", err)
		}
		seg = &segment{id: id, path: path, r: r}
		s.segs[id] = seg
	}
	s.active = seg
	s.w = w
	return nil
}

// rotate seals the active segment and starts a fresh one. Caller holds mu.
// It claims the sync slot first, so no fsync is running on the outgoing
// handle when it closes, and fsyncs that handle itself, establishing the
// invariant that sealed segments are always durable — a sync round
// therefore only ever needs to fsync the current active handle, and this
// one settles every commit appended so far.
func (s *Store) rotate() error {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	s.claimSync()
	if s.opts.Sync != SyncNone {
		if err := s.syncRound(s.appended); err != nil {
			return fmt.Errorf("storage: fsync: %w", err)
		}
	}
	if err := s.w.Close(); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	s.sealedBytes += s.active.size
	s.sealedLive += s.liveInSeg(s.active.id)
	next := s.active.id + 1
	if err := s.openActive(next, true); err != nil {
		return err
	}
	return s.syncDir()
}

// liveInSeg sums live record bytes residing in segment id. Caller holds mu.
// O(keys); called only at rotation and compaction setup.
func (s *Store) liveInSeg(id int) int64 {
	var n int64
	for _, e := range s.index {
		if e.seg == id {
			n += e.size
		}
	}
	return n
}

// recomputeSealed rebuilds the sealed-bytes accounting after recovery or
// compaction in one pass over the index. Caller holds mu (or has
// exclusive access).
func (s *Store) recomputeSealed() {
	s.sealedBytes, s.sealedLive = 0, 0
	activeID := -1
	if s.active != nil {
		activeID = s.active.id
	}
	for id, seg := range s.segs {
		if id != activeID {
			s.sealedBytes += seg.size
		}
	}
	for _, e := range s.index {
		if e.seg != activeID {
			s.sealedLive += e.size
		}
	}
}

// accountReplace moves a superseded record's bytes from live to garbage.
// Caller holds mu.
func (s *Store) accountReplace(key string) {
	if old, ok := s.index[key]; ok {
		s.liveBytes -= old.size
		if s.active == nil || old.seg != s.active.id {
			s.sealedLive -= old.size
		}
	}
}

// Get returns the latest value stored under key. The second result
// reports presence; absent keys return (nil, false, nil).
func (s *Store) Get(key string) ([]byte, bool, error) {
	start := time.Now()
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, false, ErrClosed
	}
	atomic.AddUint64(&s.gets, 1)
	e, ok := s.index[key]
	if !ok {
		s.mu.RUnlock()
		s.observeGet(time.Since(start))
		return nil, false, nil
	}
	seg := s.segs[e.seg]
	buf := make([]byte, e.size)
	_, err := seg.r.ReadAt(buf, e.off)
	s.mu.RUnlock()
	if err != nil {
		return nil, false, fmt.Errorf("storage: %w", err)
	}
	_, value, flags, err := decodeRecord(buf)
	if err != nil {
		return nil, false, err
	}
	if flags&flagTombstone != 0 {
		return nil, false, nil
	}
	s.observeGet(time.Since(start))
	return value, true, nil
}

// Has reports whether key is live, without reading its value.
func (s *Store) Has(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.index[key]
	return ok
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// DiskBytes returns the total on-disk log size.
func (s *Store) DiskBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.diskBytesLocked()
}

// diskBytesLocked sums segment sizes. Caller holds mu.
func (s *Store) diskBytesLocked() int64 {
	var n int64
	for _, seg := range s.segs {
		n += seg.size
	}
	return n
}

// Scan visits every live key with the given prefix, in unspecified order;
// fn returning false stops the scan. The value slice is private to fn's
// invocation. Scan holds the read lock for its whole duration; it is a
// recovery/admin path, not a hot path.
func (s *Store) Scan(prefix string, fn func(key string, value []byte) bool) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	for key, e := range s.index {
		if len(key) < len(prefix) || key[:len(prefix)] != prefix {
			continue
		}
		seg := s.segs[e.seg]
		buf := make([]byte, e.size)
		if _, err := seg.r.ReadAt(buf, e.off); err != nil {
			return fmt.Errorf("storage: %w", err)
		}
		_, value, flags, err := decodeRecord(buf)
		if err != nil {
			return err
		}
		if flags&flagTombstone != 0 {
			continue
		}
		if !fn(key, value) {
			return nil
		}
	}
	return nil
}

// Stats snapshots the engine's counters and sizes.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.cmu.Lock()
	defer s.cmu.Unlock()
	return Stats{
		Path:             s.opts.Path,
		Sync:             s.opts.Sync.String(),
		Keys:             len(s.index),
		Segments:         len(s.segs),
		DiskBytes:        s.diskBytesLocked(),
		LiveBytes:        s.liveBytes,
		Puts:             s.puts,
		Commits:          s.appended,
		Gets:             atomic.LoadUint64(&s.gets),
		Deletes:          s.dels,
		Syncs:            s.syncs,
		Compactions:      s.compactions,
		RecoveredRecords: s.recovered,
		TruncatedBytes:   s.truncatedBytes,
	}
}

// Register wires the engine's instruments into an observability registry:
// wall-clock get/put latency histograms (milliseconds) and disk-size
// gauges. Latencies are measured facts — they belong in manifests, never
// in deterministic report tables. No-op when the registry is disabled.
func (s *Store) Register(reg *obs.Registry) {
	if !reg.Enabled() {
		return
	}
	s.obsMu.Lock()
	s.obsGet = reg.Histogram("storage.get_ms", 1e-4, 1e5)
	s.obsPut = reg.Histogram("storage.put_ms", 1e-4, 1e5)
	s.obsMu.Unlock()
	reg.Gauge("storage.disk_bytes", func() float64 { return float64(s.DiskBytes()) })
	reg.Gauge("storage.keys", func() float64 { return float64(s.Len()) })
}

// LatencySummary reports the measured wall-clock latency quantiles in
// milliseconds (zeros when the store was never registered or saw no
// traffic). Manifest material: measured, not simulated.
func (s *Store) LatencySummary() (getP50, getP99, putP50, putP99 float64) {
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	return s.obsGet.Quantile(0.5), s.obsGet.Quantile(0.99),
		s.obsPut.Quantile(0.5), s.obsPut.Quantile(0.99)
}

func (s *Store) observeGet(d time.Duration) {
	s.obsMu.Lock()
	s.obsGet.Observe(float64(d) / float64(time.Millisecond))
	s.obsMu.Unlock()
}

func (s *Store) observePut(d time.Duration) {
	s.obsMu.Lock()
	s.obsPut.Observe(float64(d) / float64(time.Millisecond))
	s.obsMu.Unlock()
}

// Close flushes and closes the store. Every commit appended so far is
// settled by the final fsync; further operations return ErrClosed.
func (s *Store) Close() error {
	s.compactWG.Wait()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true // no append, so no rotation, from here on
	s.mu.Unlock()

	s.cmu.Lock()
	s.claimSync()
	var err error
	if s.opts.Sync != SyncNone {
		err = s.syncRound(s.appended)
	}
	if cerr := s.w.Close(); err == nil {
		err = cerr
	}
	s.w = nil
	s.cmu.Unlock()

	s.mu.Lock()
	s.closeFiles()
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	return nil
}

// closeFiles closes every read handle. Caller holds mu or has exclusive
// access.
func (s *Store) closeFiles() {
	for _, seg := range s.segs {
		if seg.r != nil {
			seg.r.Close()
			seg.r = nil
		}
	}
}
