package cache

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func k(exp, digest, shard string) Key {
	return Key{Experiment: exp, ConfigDigest: digest, Shard: shard}
}

func TestMemoryRoundTrip(t *testing.T) {
	s, err := New(Options{MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	key := k("fig6", "cfg1", "fig6 group A")
	if _, ok := s.Get(key); ok {
		t.Fatal("hit on empty store")
	}
	if err := s.Put(key, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || string(got) != "payload" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestKeyComponentsIndependent checks every key component participates in
// the address, including separator-confusable values.
func TestKeyComponentsIndependent(t *testing.T) {
	s, _ := New(Options{MaxEntries: 16})
	base := k("fig6", "d1", "shard 0")
	if err := s.Put(base, []byte("v")); err != nil {
		t.Fatal(err)
	}
	for _, other := range []Key{
		k("fig7", "d1", "shard 0"),
		k("fig6", "d2", "shard 0"),
		k("fig6", "d1", "shard 1"),
		k("fig6d1", "", "shard 0"),         // component bytes shifted across fields
		k("fig6", "d1shard", " 0"),         // likewise
		k("fig6", "d1", "shard 0\x00junk"), // embedded separator bytes
	} {
		if _, ok := s.Get(other); ok {
			t.Fatalf("key %+v aliases %+v", other, base)
		}
	}
	if _, ok := s.Get(base); !ok {
		t.Fatal("base key lost")
	}
}

func TestLRUEviction(t *testing.T) {
	s, _ := New(Options{MaxEntries: 3})
	for _, id := range []string{"a", "b", "c"} {
		s.Put(k("e", "d", id), []byte(id))
	}
	// Touch "a" so "b" becomes the LRU victim.
	if _, ok := s.Get(k("e", "d", "a")); !ok {
		t.Fatal("a missing")
	}
	s.Put(k("e", "d", "x"), []byte("x"))
	if _, ok := s.Get(k("e", "d", "b")); ok {
		t.Fatal("LRU victim b survived")
	}
	for _, id := range []string{"a", "c", "x"} {
		if _, ok := s.Get(k("e", "d", id)); !ok {
			t.Fatalf("%s evicted out of LRU order", id)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
}

func TestPutRefreshesExistingEntry(t *testing.T) {
	s, _ := New(Options{MaxEntries: 4})
	key := k("e", "d", "s")
	s.Put(key, []byte("v1"))
	s.Put(key, []byte("v2"))
	if s.Len() != 1 {
		t.Fatalf("duplicate key grew the store: Len = %d", s.Len())
	}
	got, _ := s.Get(key)
	if string(got) != "v2" {
		t.Fatalf("Get = %q after overwrite", got)
	}
}

func TestDiskPersistenceAcrossStores(t *testing.T) {
	dir := t.TempDir()
	key := k("fig6", "cfg", "fig6 µ-shard/0") // label with non-filename runes
	s1, err := New(Options{MaxEntries: 8, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(key, []byte("persisted")); err != nil {
		t.Fatal(err)
	}

	// A fresh store over the same directory starts warm.
	s2, err := New(Options{MaxEntries: 8, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(key)
	if !ok || string(got) != "persisted" {
		t.Fatalf("disk Get = %q, %v", got, ok)
	}
	st := s2.Stats()
	if st.DiskHits != 1 {
		t.Fatalf("stats after disk hit = %+v", st)
	}
	// Second Get is served from memory.
	if _, ok := s2.Get(key); !ok {
		t.Fatal("promoted entry lost")
	}
	if st := s2.Stats(); st.DiskHits != 1 || st.Hits != 2 {
		t.Fatalf("promotion stats = %+v", st)
	}
}

// TestCorruptedDiskEntryIsMiss covers the satellite requirement: flipped
// payload bytes, truncation, and garbage files all degrade to misses, and
// the next Put repairs the entry.
func TestCorruptedDiskEntryIsMiss(t *testing.T) {
	corruptions := map[string]func([]byte) []byte{
		"flipped payload byte": func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b },
		"truncated":            func(b []byte) []byte { return b[:len(b)/2] },
		"bad magic":            func(b []byte) []byte { b[0] ^= 0xff; return b },
		"empty file":           func([]byte) []byte { return nil },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			key := k("fig6", "cfg", "shard")
			s1, _ := New(Options{MaxEntries: 8, Dir: dir})
			if err := s1.Put(key, []byte("good data")); err != nil {
				t.Fatal(err)
			}
			path := findOnly(t, dir)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			s2, _ := New(Options{MaxEntries: 8, Dir: dir})
			if _, ok := s2.Get(key); ok {
				t.Fatal("corrupted entry served as a hit")
			}
			if st := s2.Stats(); st.Misses != 1 {
				t.Fatalf("stats = %+v, want exactly one miss", st)
			}
			// The next Put repairs the entry.
			if err := s2.Put(key, []byte("repaired")); err != nil {
				t.Fatal(err)
			}
			s3, _ := New(Options{MaxEntries: 8, Dir: dir})
			got, ok := s3.Get(key)
			if !ok || string(got) != "repaired" {
				t.Fatalf("after repair Get = %q, %v", got, ok)
			}
		})
	}
}

// findOnly returns the single regular cache file under dir.
func findOnly(t *testing.T, dir string) string {
	t.Helper()
	var files []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			files = append(files, path)
		}
		return err
	})
	if err != nil || len(files) != 1 {
		t.Fatalf("cache files = %v (%v)", files, err)
	}
	return files[0]
}

type gobPart struct {
	Label  string
	Values []float64
	Count  int
}

func TestGobCodecRoundTrip(t *testing.T) {
	RegisterType(gobPart{})
	RegisterType([]string(nil))

	orig := gobPart{Label: "g", Values: []float64{1.5, -2.25, 0}, Count: 7}
	data, err := Encode(orig)
	if err != nil {
		t.Fatal(err)
	}
	if viaGob, err := (Gob{}).Encode(orig); err != nil || !bytes.Equal(viaGob, data) {
		t.Fatalf("Gob.Encode differs from Encode: %v", err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := back.(gobPart)
	if !ok {
		t.Fatalf("decoded type %T", back)
	}
	if got.Label != orig.Label || got.Count != orig.Count || len(got.Values) != len(orig.Values) {
		t.Fatalf("round trip mutated value: %+v", got)
	}
	for i := range orig.Values {
		if got.Values[i] != orig.Values[i] {
			t.Fatalf("Values[%d] = %v, want %v", i, got.Values[i], orig.Values[i])
		}
	}

	// Slices-of-strings (table1's shard type) round trip too.
	data, err = Encode([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	back, err = Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if ss := back.([]string); len(ss) != 2 || ss[0] != "a" || ss[1] != "b" {
		t.Fatalf("[]string round trip = %v", back)
	}

	// Corrupted bytes decode to an error, never a wrong value.
	if _, err := Decode(bytes.Repeat([]byte{0x5a}, 16)); err == nil {
		t.Fatal("garbage decoded without error")
	}
}

// TestMemoryByteBound: the in-memory level evicts by payload bytes, LRU
// first, and an entry larger than the whole budget is not retained.
func TestMemoryByteBound(t *testing.T) {
	s, err := New(Options{MaxEntries: 100, MaxBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	pay := func(n int) []byte { return bytes.Repeat([]byte{0xab}, n) }
	s.Put(k("e", "d", "a"), pay(40))
	s.Put(k("e", "d", "b"), pay(40))
	if st := s.Stats(); st.MemBytes != 80 || st.MemEvictions != 0 {
		t.Fatalf("stats before overflow = %+v", st)
	}
	// Touch "a" so "b" is the byte-bound victim.
	s.Get(k("e", "d", "a"))
	s.Put(k("e", "d", "c"), pay(40))
	if _, ok := s.Get(k("e", "d", "b")); ok {
		t.Fatal("byte bound did not evict the LRU entry")
	}
	for _, id := range []string{"a", "c"} {
		if _, ok := s.Get(k("e", "d", id)); !ok {
			t.Fatalf("%s evicted out of order", id)
		}
	}
	st := s.Stats()
	if st.MemBytes != 80 || st.MemEvictions != 1 {
		t.Fatalf("stats after overflow = %+v", st)
	}

	// An entry bigger than the whole budget cannot pin the cache.
	s.Put(k("e", "d", "huge"), pay(200))
	if _, ok := s.Get(k("e", "d", "huge")); ok {
		t.Fatal("oversized entry retained in memory")
	}
	if st := s.Stats(); st.MemBytes > 100 {
		t.Fatalf("memory over budget: %+v", st)
	}
}

// TestDiskByteBound: the on-disk level evicts least-recently-used files
// once its byte budget is exceeded, and the in-memory accounting matches
// what is actually on disk.
func TestDiskByteBound(t *testing.T) {
	dir := t.TempDir()
	// Each file is payload + 9-byte magic + 32-byte checksum = payload+41.
	// Budget of 3 such files.
	payload := 100
	budget := int64(3 * (payload + 41))
	s, err := New(Options{MaxEntries: 1, MaxBytes: budget, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	pay := bytes.Repeat([]byte{0x77}, payload)
	for _, id := range []string{"a", "b", "c"} {
		if err := s.Put(k("e", "d", id), pay); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.DiskBytes != budget || st.DiskEvictions != 0 {
		t.Fatalf("stats at capacity = %+v", st)
	}
	// A fourth entry pushes out "a" (the oldest file).
	if err := s.Put(k("e", "d", "x"), pay); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.DiskBytes != budget || st.DiskEvictions != 1 {
		t.Fatalf("stats after disk eviction = %+v", st)
	}
	if s.DiskLen() != 3 {
		t.Fatalf("DiskLen = %d, want 3", s.DiskLen())
	}
	// MaxEntries=1 keeps memory nearly empty, so reads go to disk: "a" is
	// gone, the other three survive.
	if _, ok := s.Get(k("e", "d", "a")); ok {
		t.Fatal("disk-evicted entry still served")
	}
	for _, id := range []string{"b", "c", "x"} {
		if got, ok := s.Get(k("e", "d", id)); !ok || !bytes.Equal(got, pay) {
			t.Fatalf("%s lost by disk eviction", id)
		}
	}
}

// TestDiskAccountingSurvivesRestart: a fresh store over an existing
// directory rebuilds its byte accounting by scanning, and trims a directory
// that exceeds the (new, smaller) budget oldest-first.
func TestDiskAccountingSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	pay := bytes.Repeat([]byte{0x11}, 100)
	ids := []string{"a", "b", "c", "d"}
	for _, id := range ids {
		if err := s1.Put(k("e", "d", id), pay); err != nil {
			t.Fatal(err)
		}
	}
	total := s1.Stats().DiskBytes
	if total != 4*141 {
		t.Fatalf("disk bytes = %d, want %d", total, 4*141)
	}

	// Reopen with the same budget: accounting matches the directory.
	s2, err := New(Options{MaxBytes: total, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.DiskBytes != total || st.DiskEvictions != 0 {
		t.Fatalf("reopened stats = %+v, want %d bytes", st, total)
	}

	// Reopen with half the budget: the overage is trimmed at New, and the
	// survivors are still readable.
	s3, err := New(Options{MaxEntries: 1, MaxBytes: total / 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st := s3.Stats()
	if st.DiskBytes > total/2 || st.DiskEvictions == 0 {
		t.Fatalf("over-budget directory not trimmed: %+v", st)
	}
	hits := 0
	for _, id := range ids {
		if _, ok := s3.Get(k("e", "d", id)); ok {
			hits++
		}
	}
	if hits != s3.DiskLen() || hits == 0 {
		t.Fatalf("%d survivors readable, DiskLen = %d", hits, s3.DiskLen())
	}
}

// TestScanReclaimsOrphanedTempFiles: temp files left by an interrupted
// spill are deleted at New, not silently retained outside the byte
// accounting.
func TestScanReclaimsOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	key := k("fig6", "cfg", "shard")
	if err := s1.Put(key, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(filepath.Dir(findOnly(t, dir)), ".tmp-12345")
	if err := os.WriteFile(orphan, bytes.Repeat([]byte{1}, 512), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, statErr := os.Stat(orphan); !os.IsNotExist(statErr) {
		t.Fatalf("orphaned temp file survived the scan: %v", statErr)
	}
	if got, ok := s2.Get(key); !ok || string(got) != "kept" {
		t.Fatalf("real entry lost during temp cleanup: %q, %v", got, ok)
	}
	if st := s2.Stats(); st.DiskBytes != 4+41 {
		t.Fatalf("disk accounting includes the orphan: %+v", st)
	}
}
