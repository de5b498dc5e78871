package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// KVStore is the durable on-disk backend: a directory holding a JSON
// snapshot plus a write-ahead log of CRC-framed puts. A Put appends one
// frame to the log and fsyncs it before returning, so a completed Put
// survives a crash without rewriting the whole store; the log is folded
// into a fresh snapshot — written through a fsynced temporary sibling and
// an atomic rename — once it grows past a threshold, and on Close. A torn
// or corrupt log tail (the partial frame a crash mid-append leaves
// behind) is detected by its length/checksum and truncated away on open:
// everything before it is kept, and the damaged suffix is never visible
// to readers. A single policy file of either schema is a valid snapshot
// with an empty log, so it loads when placed at DIR/snapshot.json. It
// implements both Store and Backend.
type KVStore struct {
	dir string

	mu        sync.Mutex
	recs      map[Key]VersionedRecord
	wal       *os.File
	walBytes  int64
	walFrames int
	closed    bool
	watch     watchers
	// loadWarning describes tolerated damage found on open (corrupt
	// snapshot, truncated log tail).
	loadWarning string
}

const (
	kvSnapshotName = "snapshot.json"
	kvWALName      = "wal.log"
	// kvCompactBytes and kvCompactFrames bound the write-ahead log; the
	// first Put past either threshold triggers compaction.
	kvCompactBytes  = 1 << 20
	kvCompactFrames = 4096
	// kvFrameHeader is the per-frame header: payload length and CRC-32.
	kvFrameHeader = 8
	// kvMaxFrame bounds a single frame; longer length prefixes are
	// treated as corruption rather than allocated.
	kvMaxFrame = 16 << 20
)

// OpenKV opens (or initializes) the embedded KV store rooted at dir,
// creating the directory if needed. Damage is tolerated rather than
// failing the open, because the knowledge is re-learnable: a truncated,
// corrupt or future-schema snapshot loads as empty, a schema-1 snapshot
// (from before the fleet rework) is migrated, a torn log tail is
// truncated, and the condition is reported by LoadWarning. Temporaries a
// crashed compaction left beside the snapshot are swept away unread.
func OpenKV(dir string) (*KVStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty KV directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &KVStore{dir: dir, recs: map[Key]VersionedRecord{}}

	// A temporary was never renamed, so its contents are possibly torn
	// and must never be read as a snapshot.
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			if isTempName(kvSnapshotName, e.Name()) {
				os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
	snapPath := filepath.Join(dir, kvSnapshotName)
	if data, err := os.ReadFile(snapPath); err == nil {
		recs, warn := decodeRecords(data, snapPath)
		s.recs = recs
		s.loadWarning = warn
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: %w", err)
	}

	if err := s.replayWAL(); err != nil {
		return nil, err
	}
	wal, err := os.OpenFile(filepath.Join(dir, kvWALName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.wal = wal
	if st, err := wal.Stat(); err == nil {
		s.walBytes = st.Size()
	}
	return s, nil
}

// replayWAL folds the write-ahead log into the in-memory state, stopping
// at — and truncating — the first torn or corrupt frame so a crash
// mid-append never surfaces partial data.
func (s *KVStore) replayWAL() error {
	path := filepath.Join(s.dir, kvWALName)
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()

	var offset int64
	header := make([]byte, kvFrameHeader)
	for {
		if _, err := io.ReadFull(f, header); err != nil {
			if err == io.EOF {
				return nil // clean end of log
			}
			// A short header is the torn tail of a crashed append.
			return s.truncateWAL(path, offset, "short frame header")
		}
		length := binary.LittleEndian.Uint32(header[0:4])
		sum := binary.LittleEndian.Uint32(header[4:8])
		if length == 0 || length > kvMaxFrame {
			return s.truncateWAL(path, offset, fmt.Sprintf("implausible frame length %d", length))
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(f, payload); err != nil {
			return s.truncateWAL(path, offset, "torn frame payload")
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return s.truncateWAL(path, offset, "frame checksum mismatch")
		}
		var vr VersionedRecord
		if err := json.Unmarshal(payload, &vr); err != nil || vr.Key.Validate() != nil {
			return s.truncateWAL(path, offset, "undecodable frame")
		}
		vr.Record.Section = vr.Key.Section
		s.recs[vr.Key] = vr
		offset += int64(kvFrameHeader) + int64(length)
		s.walFrames++
	}
}

// truncateWAL cuts the log back to the last complete frame.
func (s *KVStore) truncateWAL(path string, offset int64, why string) error {
	if err := os.Truncate(path, offset); err != nil {
		return fmt.Errorf("store: truncating damaged WAL: %w", err)
	}
	s.loadWarning = fmt.Sprintf("damaged WAL tail in %s truncated at byte %d: %s", path, offset, why)
	return nil
}

// Dir returns the backing directory.
func (s *KVStore) Dir() string { return s.dir }

// LoadWarning reports tolerated damage found on open ("" when the store
// loaded cleanly).
func (s *KVStore) LoadWarning() string { return s.loadWarning }

// Get implements Backend.
func (s *KVStore) Get(k Key) (VersionedRecord, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	vr, ok := s.recs[k]
	if !ok {
		return VersionedRecord{}, false, nil
	}
	return cloneVersioned(vr), true, nil
}

// Put implements Backend: one fsynced frame appended to the write-ahead
// log, plus a compaction when the log has grown past its threshold.
func (s *KVStore) Put(rec VersionedRecord, prev uint64) (VersionedRecord, error) {
	if err := validatePut(rec); err != nil {
		return VersionedRecord{}, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return VersionedRecord{}, fmt.Errorf("store: put on closed KV store")
	}
	cur, ok := s.recs[rec.Key]
	curVersion := uint64(0)
	if ok {
		curVersion = cur.Version
	}
	if curVersion != prev {
		s.mu.Unlock()
		return VersionedRecord{}, fmt.Errorf("%w: key %s at version %d, caller expected %d",
			ErrConflict, rec.Key, curVersion, prev)
	}
	stored := cloneVersioned(rec)
	stored.Version = curVersion + 1
	if err := s.appendLocked(stored); err != nil {
		s.mu.Unlock()
		return VersionedRecord{}, err
	}
	s.recs[rec.Key] = stored
	if s.walBytes > kvCompactBytes || s.walFrames > kvCompactFrames {
		// Compaction failure is not a Put failure: the WAL still holds
		// the write; the next Put retries the fold.
		_ = s.compactLocked()
	}
	out := cloneVersioned(stored)
	s.mu.Unlock()
	s.watch.notify(out)
	return cloneVersioned(out), nil
}

// appendLocked writes one framed record to the log and fsyncs it.
func (s *KVStore) appendLocked(vr VersionedRecord) error {
	payload, err := json.Marshal(vr)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	frame := make([]byte, kvFrameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[kvFrameHeader:], payload)
	if _, err := s.wal.Write(frame); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.walBytes += int64(len(frame))
	s.walFrames++
	return nil
}

// compactLocked folds the current state into the snapshot and resets the
// log. Ordering matters for crash safety: the snapshot (which embeds
// every logged write) is made durable before the log is truncated, so no
// window exists in which a write lives in neither file.
func (s *KVStore) compactLocked() error {
	data, err := encodeRecords(s.recs)
	if err != nil {
		return err
	}
	if err := writeFileAtomic(filepath.Join(s.dir, kvSnapshotName), data); err != nil {
		return err
	}
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := s.wal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.walBytes = 0
	s.walFrames = 0
	return nil
}

// Compact folds the write-ahead log into the snapshot immediately.
func (s *KVStore) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: compact on closed KV store")
	}
	return s.compactLocked()
}

// List implements Backend.
func (s *KVStore) List() ([]Key, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]Key, 0, len(s.recs))
	for k := range s.recs {
		keys = append(keys, k)
	}
	sortKeys(keys)
	return keys, nil
}

// Watch implements Backend.
func (s *KVStore) Watch(fn func(VersionedRecord)) (cancel func()) {
	return s.watch.add(fn)
}

// Close compacts and closes the store.
func (s *KVStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.compactLocked()
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	return err
}

// Load implements Store.
func (s *KVStore) Load(section string) (Record, bool, error) {
	return viewLoad(s, "", section)
}

// LoadFor implements EnvLoader.
func (s *KVStore) LoadFor(section string, fp Fingerprint) (Record, bool, error) {
	return viewLoadFor(s, "", section, fp)
}

// Save implements Store.
func (s *KVStore) Save(rec Record) error {
	return viewSave(s, "", rec)
}

// Sections implements Store.
func (s *KVStore) Sections() ([]string, error) {
	return viewSections(s, "")
}
