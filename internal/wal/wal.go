// Package wal is an append-only, checksummed, versioned record log — the
// durability substrate of the serve plane (DESIGN.md §14). A Log owns a
// directory of segment files; every record is framed with a length prefix
// and a CRC, so replay-on-open can reconstruct exactly the records that
// reached disk and cut a torn tail left by a crash mid-write.
//
// The contract, in order of importance:
//
//   - A record acknowledged by AppendSync survives a crash.
//   - Replay never invents records: a frame is returned only when its
//     length, checksum and segment header all verify.
//   - A torn tail — the partially written frame a SIGKILL leaves at the
//     end of the newest segment — is truncated silently. Corruption
//     anywhere else (an older, previously fsynced segment) is an error:
//     it means lost history, not an interrupted write, and the caller
//     must decide, not guess.
//
// Writes are buffered; AppendSync is a group commit. Concurrent appenders
// pile records into one buffered writer, and the first AppendSync caller
// flushes and fsyncs for everyone who appended before it — under fan-in
// (many Submits racing) the log coalesces their durability barriers into one
// disk flush, the classic group-commit shape.
//
// Segments rotate at MaxSegmentBytes. Open never appends to an existing
// segment: it replays them read-only and starts a fresh one, so a replay
// boundary is always a file boundary. DropHistory deletes the segments a
// Log inherited at Open — the compaction hook: once the application has
// re-journaled the live state into the new segment, the old generations
// are dead weight.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

const (
	// magic opens every segment file: format name and version. Bumping the
	// version makes old logs unreadable by construction instead of
	// misreadable.
	magic = "cdwal/1\n"
	// frameHeader is the per-record overhead: u32 payload length and u32
	// CRC-32C, both little-endian, followed by the payload (type byte +
	// data).
	frameHeader = 8
	// MaxRecordSize bounds one record's payload (type byte + data). The
	// cap exists so replay can reject an insane length prefix (torn or
	// corrupt) without attempting a gigabyte allocation.
	MaxRecordSize = 16 << 20
)

// castagnoli is the CRC-32C table (the polynomial with hardware support
// on both amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed (or abandoned) log.
var ErrClosed = errors.New("wal: closed")

// ErrCorrupt reports corruption outside the replayable torn-tail case: a
// bad frame in a non-final segment, i.e. lost history.
var ErrCorrupt = errors.New("wal: corrupt segment")

// Options configures a Log.
type Options struct {
	// Dir holds the segment files. Created if missing.
	Dir string
	// MaxSegmentBytes rotates the active segment once it grows past this
	// size (<= 0 selects 4 MiB). Rotation is a durability barrier: the
	// finished segment is flushed and fsynced before the next one opens.
	MaxSegmentBytes int64
}

// Record is one journaled entry: an application-defined type tag and an
// opaque payload.
type Record struct {
	Type byte
	Data []byte
}

// Stats counts a Log's activity since Open, plus what replay found.
type Stats struct {
	Records  int64 // records appended this session
	Bytes    int64 // frame bytes appended this session
	Syncs    int64 // fsync barriers issued (group commits, rotations, close)
	Segments int   // segment files on disk (inherited + active)
	Replayed int   // records recovered by Open's replay
	// Truncated reports that Open cut a torn tail off the newest inherited
	// segment — the expected signature of a crash mid-append.
	Truncated bool
}

// Log is an open write-ahead log. Safe for concurrent use.
type Log struct {
	opts   Options
	segMax int64

	mu        sync.Mutex
	cond      *sync.Cond // group-commit rendezvous; broadcast after each fsync
	f         *os.File
	w         *bufio.Writer
	seg       int   // active segment number
	size      int64 // active segment size including header
	inherited []int // segments replayed at Open; DropHistory's victims
	appended  int64 // records written into the buffer
	synced    int64 // records known durable
	syncing   bool  // an fsync is in flight outside mu
	err       error // first write/sync error; the log is dead once set
	closed    bool
	stats     Stats
}

// segName formats a segment number as its file name. Fixed-width decimal
// keeps lexical and numeric order identical.
func segName(n int) string { return fmt.Sprintf("%08d.wal", n) }

// Open replays every segment in dir (in segment order) and returns the
// recovered records together with a log ready for appends. The newest
// segment may carry a torn tail, which Open truncates; any other decode
// failure returns ErrCorrupt. The returned log writes to a NEW segment —
// inherited ones are never appended to, and DropHistory deletes them once
// the caller has re-journaled what it still needs.
func Open(opts Options) (*Log, []Record, error) {
	if opts.Dir == "" {
		return nil, nil, errors.New("wal: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	segs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	l := &Log{opts: opts, segMax: opts.MaxSegmentBytes}
	if l.segMax <= 0 {
		l.segMax = 4 << 20
	}
	l.cond = sync.NewCond(&l.mu)

	var records []Record
	next := 1
	for i, seg := range segs {
		path := filepath.Join(opts.Dir, segName(seg))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		final := i == len(segs)-1
		if len(data) == 0 {
			// A crash between create and header write leaves an empty file;
			// it holds nothing, so drop it regardless of position.
			_ = os.Remove(path)
			continue
		}
		recs, good, clean := replaySegment(data)
		switch {
		case clean:
		case !final:
			return nil, nil, fmt.Errorf("%w: %s: bad frame at offset %d (not the newest segment)", ErrCorrupt, path, good)
		case good < len(magic):
			// The newest segment's torn spot is inside the header itself:
			// nothing replayable, remove the file.
			if err := os.Remove(path); err != nil {
				return nil, nil, fmt.Errorf("wal: %w", err)
			}
			l.stats.Truncated = true
		default:
			if err := os.Truncate(path, int64(good)); err != nil {
				return nil, nil, fmt.Errorf("wal: %w", err)
			}
			l.stats.Truncated = true
		}
		records = append(records, recs...)
		if !clean && good < len(magic) {
			continue // file removed above; not inherited
		}
		l.inherited = append(l.inherited, seg)
		next = seg + 1
	}
	l.stats.Replayed = len(records)

	l.seg = next
	if err := l.openSegmentLocked(); err != nil {
		return nil, nil, err
	}
	return l, records, nil
}

// listSegments returns the segment numbers present in dir, ascending.
func listSegments(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []int
	for _, ent := range ents {
		var n int
		if _, err := fmt.Sscanf(ent.Name(), "%d.wal", &n); err == nil && segName(n) == ent.Name() {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// openSegmentLocked creates the active segment and writes its header.
func (l *Log) openSegmentLocked() error {
	f, err := os.OpenFile(filepath.Join(l.opts.Dir, segName(l.seg)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.w = bufio.NewWriterSize(f, 64<<10)
	if _, err := l.w.WriteString(magic); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.size = int64(len(magic))
	return nil
}

// replaySegment decodes one segment image. It returns the records that
// verify, the byte offset just past the last good frame, and whether the
// segment decoded cleanly to its end. It never panics, whatever the
// input — the fuzz suite holds it to that.
func replaySegment(data []byte) (recs []Record, good int, clean bool) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, 0, false
	}
	off := len(magic)
	for off < len(data) {
		if len(data)-off < frameHeader {
			return recs, off, false
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n < 1 || n > MaxRecordSize || len(data)-off-frameHeader < n {
			return recs, off, false
		}
		payload := data[off+frameHeader : off+frameHeader+n]
		if crc32.Checksum(payload, castagnoli) != sum {
			return recs, off, false
		}
		recs = append(recs, Record{Type: payload[0], Data: append([]byte(nil), payload[1:]...)})
		off += frameHeader + n
	}
	return recs, off, true
}

// appendFrame encodes one record's frame into buf (test and fuzz helper;
// the write path encodes directly into the buffered writer).
func appendFrame(buf []byte, r Record) []byte {
	payload := make([]byte, 0, 1+len(r.Data))
	payload = append(payload, r.Type)
	payload = append(payload, r.Data...)
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// Append buffers one record. It is NOT durable until a later AppendSync
// (or rotation, or Close) covers it — callers journaling a must-survive
// transition use AppendSync.
func (l *Log) Append(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(r)
}

func (l *Log) appendLocked(r Record) error {
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	if 1+len(r.Data) > MaxRecordSize {
		return fmt.Errorf("wal: record of %d bytes exceeds MaxRecordSize", 1+len(r.Data))
	}
	if l.size >= l.segMax {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	var hdr [frameHeader + 1]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(1+len(r.Data)))
	crc := crc32.Update(crc32.Checksum([]byte{r.Type}, castagnoli), castagnoli, r.Data)
	binary.LittleEndian.PutUint32(hdr[4:], crc)
	hdr[frameHeader] = r.Type
	if _, err := l.w.Write(hdr[:]); err != nil {
		l.err = err
		l.cond.Broadcast()
		return err
	}
	if _, err := l.w.Write(r.Data); err != nil {
		l.err = err
		l.cond.Broadcast()
		return err
	}
	n := int64(frameHeader + 1 + len(r.Data))
	l.size += n
	l.appended++
	l.stats.Records++
	l.stats.Bytes += n
	return nil
}

// AppendSync appends one record and waits for it to be durable.
func (l *Log) AppendSync(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.appendLocked(r); err != nil {
		return err
	}
	return l.syncLocked()
}

// syncLocked is the group-commit core. The leader flushes the buffer
// under mu, then fsyncs OUTSIDE mu so appenders keep making progress;
// followers wait on cond and re-check whether a later leader already
// covered their records.
func (l *Log) syncLocked() error {
	target := l.appended
	for l.synced < target && l.err == nil && !l.closed {
		if l.syncing {
			l.cond.Wait()
			continue
		}
		l.syncing = true
		if err := l.w.Flush(); err != nil {
			l.err = err
			l.syncing = false
			l.cond.Broadcast()
			break
		}
		mark := l.appended // everything up to here is now in the OS buffer
		f := l.f
		l.mu.Unlock()
		serr := f.Sync()
		l.mu.Lock()
		l.syncing = false
		l.stats.Syncs++
		if serr != nil {
			l.err = serr
		} else if mark > l.synced {
			l.synced = mark
		}
		l.cond.Broadcast()
	}
	if l.err != nil {
		return l.err
	}
	if l.closed && l.synced < target {
		return ErrClosed
	}
	return nil
}

// rotateLocked finishes the active segment (flush + fsync + close) and
// opens the next one. It waits out any in-flight group commit first so
// the fsync target cannot be closed under it.
func (l *Log) rotateLocked() error {
	for l.syncing {
		l.cond.Wait()
	}
	if l.err != nil {
		return l.err
	}
	if err := l.w.Flush(); err != nil {
		l.err = err
		return err
	}
	if err := l.f.Sync(); err != nil {
		l.err = err
		return err
	}
	l.stats.Syncs++
	l.synced = l.appended
	if err := l.f.Close(); err != nil {
		l.err = err
		return err
	}
	l.seg++
	if err := l.openSegmentLocked(); err != nil {
		l.err = err
		return err
	}
	return nil
}

// DropHistory deletes the segments inherited at Open — compaction, for
// after the caller re-journals the still-live state into the active
// segment. The active segment is synced first so the re-journaled state
// is durable before its only other copy disappears.
func (l *Log) DropHistory() error {
	l.mu.Lock()
	if err := l.syncLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	victims := l.inherited
	l.inherited = nil
	l.mu.Unlock()
	for _, seg := range victims {
		if err := os.Remove(filepath.Join(l.opts.Dir, segName(seg))); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("wal: %w", err)
		}
	}
	return nil
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.stats
	st.Segments = len(l.inherited) + 1
	return st
}

// Close flushes, fsyncs and closes the log. Records appended before Close
// are durable when it returns nil.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	err := l.syncLocked()
	l.closed = true
	l.cond.Broadcast()
	if l.f != nil {
		if ferr := l.f.Close(); err == nil && ferr != nil {
			err = ferr
		}
		l.f = nil
	}
	return err
}

// Abandon drops the log without flushing or syncing buffered records —
// the closest a test gets to SIGKILL. Records already covered by a Sync
// stay on disk; buffered ones vanish, exactly as a crash would lose them.
func (l *Log) Abandon() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	for l.syncing {
		l.cond.Wait()
	}
	l.closed = true
	l.cond.Broadcast()
	if l.f != nil {
		_ = l.f.Close() // without flushing l.w: the buffer is dropped
		l.f = nil
	}
}
