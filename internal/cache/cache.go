// Package cache is the content-addressed shard-result cache of the
// experiment service (see DESIGN.md §8).
//
// A cache entry is keyed by (experiment ID, config digest, shard label):
// the experiment and shard name the unit of work, and the config digest —
// a hash of every field of the experiment configuration — pins the inputs
// it ran under. Because shards are pure functions of (config, shard key)
// by the engine's determinism contract, a key collision-free lookup is a
// correctness-preserving skip: re-running a sweep after a config tweak
// recomputes exactly the shards whose keys changed and replays the rest.
//
// The store is a two-level hierarchy: an in-memory LRU backed by an
// optional on-disk directory so warm results survive process restarts.
// Both levels are bounded twice over — by entry count (Options.MaxEntries,
// memory only) and by payload bytes (Options.MaxBytes, accounted in both
// levels; the disk level evicts least-recently-used files, surviving
// process restarts by rebuilding its accounting from a directory scan).
// Disk entries are checksummed; a corrupted or truncated file is treated
// as a miss, deleted to reclaim its bytes, and silently repaired by the
// next Put, never surfaced as an error. Values are opaque bytes; Encode
// and Decode are the gob encoding every shard result is stored in.
package cache

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Key identifies one cached shard result.
type Key struct {
	// Experiment is the experiment ID the shard belongs to.
	Experiment string
	// ConfigDigest is a stable hash of the experiment configuration
	// (experiments.Config.Digest): any config change changes every key.
	ConfigDigest string
	// Shard is the shard's label, unique within an experiment's plan.
	Shard string
}

// digest returns the key's content address: a hex SHA-256 over the three
// components with an unambiguous separator (labels cannot smuggle one
// component's bytes into another's).
func (k Key) digest() string {
	h := sha256.New()
	for _, part := range []string{k.Experiment, k.ConfigDigest, k.Shard} {
		fmt.Fprintf(h, "%d:%s,", len(part), part)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Options configures a Store.
type Options struct {
	// MaxEntries bounds the in-memory level by entry count
	// (<= 0 selects 4096).
	MaxEntries int
	// MaxBytes bounds each level by payload bytes (<= 0 = unbounded).
	// The in-memory level accounts the raw payload; the on-disk level
	// accounts full file sizes (payload plus header). An entry larger than
	// MaxBytes is not retained at all — it is computed, offered, and
	// immediately evicted, so one pathological shard cannot pin the cache.
	MaxBytes int64
	// Dir enables the on-disk level: entries are spilled there on Put and
	// faulted back in on Get, so a fresh process pointed at the same
	// directory starts warm.
	Dir string
}

// Stats counts cache traffic since the store was created, plus the current
// size of each level.
type Stats struct {
	// Hits and Misses count Get outcomes; DiskHits is the subset of Hits
	// served from the on-disk store rather than memory.
	Hits, Misses, DiskHits int64
	// Puts counts stored entries; Corrupt counts on-disk entries rejected
	// by the checksum (each also counted as a miss).
	Puts, Corrupt int64
	// MemEvictions and DiskEvictions count entries expelled from each level
	// by the entry or byte bound.
	MemEvictions, DiskEvictions int64
	// MemBytes and DiskBytes are the levels' current payload footprints
	// (disk includes per-file header overhead).
	MemBytes, DiskBytes int64
}

// Store is a bounded in-memory LRU with an optional on-disk second level.
// All methods are goroutine-safe. Byte slices returned by Get and handed
// to Put are shared, not copied: callers must not mutate them.
type Store struct {
	opts Options

	mu       sync.Mutex
	ll       *list.List // front = most recently used
	idx      map[string]*list.Element
	memBytes int64
	stats    Stats

	// The disk level keeps its own recency list and byte accounting,
	// guarded separately so disk I/O never extends the memory level's
	// critical section.
	dmu       sync.Mutex
	dll       *list.List // front = most recently used file
	didx      map[string]*list.Element
	diskBytes int64
	dstats    struct{ evictions int64 }
}

type entry struct {
	digest string
	data   []byte
}

type diskEntry struct {
	path string
	size int64
}

// New creates a store from the given options. A non-empty Dir enables the
// on-disk level; its accounting is seeded by scanning the directory, so
// byte bounds hold across process restarts (an over-budget directory is
// trimmed immediately, oldest files first).
func New(opts Options) (*Store, error) {
	if opts.MaxEntries <= 0 {
		opts.MaxEntries = 4096
	}
	s := &Store{
		opts: opts,
		ll:   list.New(),
		idx:  make(map[string]*list.Element),
		dll:  list.New(),
		didx: make(map[string]*list.Element),
	}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("cache: %w", err)
		}
		if err := s.scanDisk(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Get returns the cached bytes for k, consulting memory first and then the
// on-disk level. The second result is false on a miss (including corrupted
// disk entries).
func (s *Store) Get(k Key) ([]byte, bool) {
	d := k.digest()
	s.mu.Lock()
	if el, ok := s.idx[d]; ok {
		s.ll.MoveToFront(el)
		s.stats.Hits++
		data := el.Value.(*entry).data
		s.mu.Unlock()
		return data, true
	}
	s.mu.Unlock()

	if s.opts.Dir != "" {
		data, ok, corrupt := s.readDisk(k, d)
		s.mu.Lock()
		if ok {
			s.stats.Hits++
			s.stats.DiskHits++
			s.insertLocked(d, data)
			s.mu.Unlock()
			return data, true
		}
		if corrupt {
			s.stats.Corrupt++
		}
		s.stats.Misses++
		s.mu.Unlock()
		return nil, false
	}

	s.mu.Lock()
	s.stats.Misses++
	s.mu.Unlock()
	return nil, false
}

// Put stores data under k in memory and, when enabled, on disk. The
// returned error reports only disk-spill failures; the in-memory insert
// always succeeds, so callers may treat the error as advisory.
func (s *Store) Put(k Key, data []byte) error {
	d := k.digest()
	s.mu.Lock()
	s.insertLocked(d, data)
	s.stats.Puts++
	s.mu.Unlock()
	if s.opts.Dir == "" {
		return nil
	}
	return s.writeDisk(k, d, data)
}

// Stats returns a snapshot of the traffic counters and level sizes.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	st.MemBytes = s.memBytes
	s.mu.Unlock()
	s.dmu.Lock()
	st.DiskBytes = s.diskBytes
	st.DiskEvictions = s.dstats.evictions
	s.dmu.Unlock()
	return st
}

// Len returns the number of in-memory entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// DiskLen returns the number of on-disk entries (0 when the disk level is
// disabled).
func (s *Store) DiskLen() int {
	s.dmu.Lock()
	defer s.dmu.Unlock()
	return s.dll.Len()
}

// insertLocked adds or refreshes an entry, keeps the byte accounting, and
// evicts from the LRU tail while either bound is exceeded. Caller holds
// s.mu.
func (s *Store) insertLocked(digest string, data []byte) {
	if el, ok := s.idx[digest]; ok {
		e := el.Value.(*entry)
		s.memBytes += int64(len(data)) - int64(len(e.data))
		e.data = data
		s.ll.MoveToFront(el)
	} else {
		s.idx[digest] = s.ll.PushFront(&entry{digest: digest, data: data})
		s.memBytes += int64(len(data))
	}
	for s.ll.Len() > 0 &&
		(s.ll.Len() > s.opts.MaxEntries || (s.opts.MaxBytes > 0 && s.memBytes > s.opts.MaxBytes)) {
		tail := s.ll.Back()
		e := tail.Value.(*entry)
		s.ll.Remove(tail)
		delete(s.idx, e.digest)
		s.memBytes -= int64(len(e.data))
		s.stats.MemEvictions++
	}
}

// Disk layout: <dir>/<sanitized experiment>/<key digest>.cds, written
// atomically (temp file + rename). Each file carries a magic header and a
// payload checksum so torn writes and bit rot degrade to misses.
const diskMagic = "cdcache1\n"

func (s *Store) diskPath(k Key, digest string) string {
	return filepath.Join(s.opts.Dir, sanitize(k.Experiment), digest+".cds")
}

// sanitize maps an experiment ID onto a safe directory name.
func sanitize(id string) string {
	if id == "" {
		return "_"
	}
	var b strings.Builder
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if strings.Trim(b.String(), ".") == "" {
		return "_"
	}
	return b.String()
}

// scanDisk seeds the disk level's byte accounting and recency list from the
// directory's existing entries (oldest modification first, so eviction
// order survives restarts), then trims any pre-existing overage.
func (s *Store) scanDisk() error {
	type fileInfo struct {
		path  string
		size  int64
		mtime int64
	}
	var files []fileInfo
	err := filepath.WalkDir(s.opts.Dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if strings.HasPrefix(filepath.Base(path), ".tmp-") {
			// A write interrupted mid-spill left its temp file behind; it
			// holds bytes the MaxBytes accounting would never see, so
			// reclaim it now.
			_ = os.Remove(path)
			return nil
		}
		if !strings.HasSuffix(path, ".cds") {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil // raced with a concurrent delete: skip
		}
		files = append(files, fileInfo{path, info.Size(), info.ModTime().UnixNano()})
		return nil
	})
	if err != nil {
		return fmt.Errorf("cache: scan %s: %w", s.opts.Dir, err)
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].mtime != files[j].mtime {
			return files[i].mtime < files[j].mtime
		}
		return files[i].path < files[j].path
	})
	s.dmu.Lock()
	defer s.dmu.Unlock()
	for _, f := range files {
		// Oldest pushed first ends up at the back — first out.
		s.didx[f.path] = s.dll.PushFront(&diskEntry{path: f.path, size: f.size})
		s.diskBytes += f.size
	}
	s.evictDiskLocked()
	return nil
}

// touchDisk marks one on-disk entry recently used (or adopts a file written
// by an earlier process generation). Caller must NOT hold dmu.
func (s *Store) touchDisk(path string, size int64) {
	s.dmu.Lock()
	defer s.dmu.Unlock()
	if el, ok := s.didx[path]; ok {
		s.dll.MoveToFront(el)
		return
	}
	s.didx[path] = s.dll.PushFront(&diskEntry{path: path, size: size})
	s.diskBytes += size
	s.evictDiskLocked()
}

// dropDisk removes one on-disk entry and its accounting (corrupt file
// cleanup). Caller must NOT hold dmu.
func (s *Store) dropDisk(path string) {
	s.dmu.Lock()
	defer s.dmu.Unlock()
	_ = os.Remove(path)
	if el, ok := s.didx[path]; ok {
		s.diskBytes -= el.Value.(*diskEntry).size
		s.dll.Remove(el)
		delete(s.didx, path)
	}
}

// evictDiskLocked deletes least-recently-used files while the disk level
// exceeds its byte bound. Caller holds dmu.
func (s *Store) evictDiskLocked() {
	if s.opts.MaxBytes <= 0 {
		return
	}
	for s.diskBytes > s.opts.MaxBytes && s.dll.Len() > 0 {
		tail := s.dll.Back()
		de := tail.Value.(*diskEntry)
		_ = os.Remove(de.path)
		s.dll.Remove(tail)
		delete(s.didx, de.path)
		s.diskBytes -= de.size
		s.dstats.evictions++
	}
}

// readDisk loads and verifies one on-disk entry. ok reports a valid hit;
// corrupt reports a present-but-invalid file (bad magic, bad checksum,
// truncation) — treated as a miss by the caller and deleted so its bytes
// are reclaimed.
func (s *Store) readDisk(k Key, digest string) (data []byte, ok, corrupt bool) {
	path := s.diskPath(k, digest)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, false, false
	}
	if !bytes.HasPrefix(raw, []byte(diskMagic)) {
		s.dropDisk(path)
		return nil, false, true
	}
	rest := raw[len(diskMagic):]
	if len(rest) < sha256.Size {
		s.dropDisk(path)
		return nil, false, true
	}
	sum, payload := rest[:sha256.Size], rest[sha256.Size:]
	if sha256.Sum256(payload) != [sha256.Size]byte(sum) {
		s.dropDisk(path)
		return nil, false, true
	}
	s.touchDisk(path, int64(len(raw)))
	return payload, true, false
}

// writeDisk spills one entry atomically and folds it into the disk level's
// accounting, evicting older files if the byte bound is now exceeded.
func (s *Store) writeDisk(k Key, digest string, data []byte) error {
	path := s.diskPath(k, digest)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	sum := sha256.Sum256(data)
	buf := make([]byte, 0, len(diskMagic)+len(sum)+len(data))
	buf = append(buf, diskMagic...)
	buf = append(buf, sum[:]...)
	buf = append(buf, data...)
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}

	s.dmu.Lock()
	defer s.dmu.Unlock()
	size := int64(len(buf))
	if el, ok := s.didx[path]; ok {
		de := el.Value.(*diskEntry)
		s.diskBytes += size - de.size
		de.size = size
		s.dll.MoveToFront(el)
	} else {
		s.didx[path] = s.dll.PushFront(&diskEntry{path: path, size: size})
		s.diskBytes += size
	}
	s.evictDiskLocked()
	return nil
}

// RegisterType records a concrete shard-result type with the gob encoding.
// Call it from the experiment's init alongside registration; encoding an
// unregistered type is an error surfaced by Encode. Every experiment's
// parts must round-trip this encoding — the cache, the remote worker reply
// path and the merge all depend on it — and the registry-wide audit test
// (TestShardPartsGobEncodable in internal/experiments) fails any plan
// whose parts are unregistered, carry unexported fields, or decode into a
// different report.
func RegisterType(v any) { gob.Register(v) }

// Encode serializes a shard result with encoding/gob behind an interface
// envelope, so one encoding serves every experiment (v's concrete type
// must be registered). Decode(Encode(v)) must be indistinguishable from v
// to the experiment's merge step: the byte-identical-report guarantee of
// cached and remotely computed shards rests on it.
func Encode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		return nil, fmt.Errorf("cache: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// Decode deserializes bytes produced by Encode.
func Decode(data []byte) (any, error) {
	var v any
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&v); err != nil {
		return nil, fmt.Errorf("cache: decode: %w", err)
	}
	return v, nil
}

// Gob is Encode and Decode as methods, for callers that hold the encoding
// as a value (perfbench's hit-path probe).
type Gob struct{}

// Encode calls Encode.
func (Gob) Encode(v any) ([]byte, error) { return Encode(v) }

// Decode calls Decode.
func (Gob) Decode(data []byte) (any, error) { return Decode(data) }
