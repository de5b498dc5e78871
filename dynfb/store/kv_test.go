package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
)

// kvPut writes one versioned record through the Backend interface,
// creating or updating as needed.
func kvPut(t *testing.T, s *KVStore, section, env string, clock uint64) {
	t.Helper()
	k := Key{Section: section, Env: env}
	cur, ok, err := s.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	var prev uint64
	if ok {
		prev = cur.Version
	}
	rec := sampleRecord(section)
	if _, err := s.Put(VersionedRecord{Key: k, Clock: clock, Record: rec}, prev); err != nil {
		t.Fatal(err)
	}
}

func TestKVCrashRecoveryFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenKV(dir)
	if err != nil {
		t.Fatal(err)
	}
	kvPut(t, s, "alpha", "e1", 1)
	kvPut(t, s, "beta", "e1", 1)
	kvPut(t, s, "alpha", "e1", 2) // update: replayed last-write-wins

	// Simulate a crash: no Close, no compaction — state lives in the WAL.
	if _, err := os.Stat(filepath.Join(dir, kvSnapshotName)); !os.IsNotExist(err) {
		t.Fatal("snapshot exists before any compaction")
	}
	s2, err := OpenKV(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.LoadWarning() != "" {
		t.Errorf("clean WAL produced warning %q", s2.LoadWarning())
	}
	got, ok, err := s2.Get(Key{Section: "alpha", Env: "e1"})
	if !ok || err != nil {
		t.Fatalf("alpha: ok=%v err=%v", ok, err)
	}
	if got.Clock != 2 || got.Version != 2 {
		t.Errorf("alpha clock=%d version=%d, want clock 2 version 2", got.Clock, got.Version)
	}
	if keys, _ := s2.List(); len(keys) != 2 {
		t.Errorf("recovered %d keys, want 2", len(keys))
	}
}

// TestKVTornTailTruncated crashes mid-append in three ways; in each case
// every complete frame survives and the damage is reported, not fatal.
func TestKVTornTailTruncated(t *testing.T) {
	damage := map[string]func(t *testing.T, walPath string){
		"torn-payload": func(t *testing.T, walPath string) {
			st, err := os.Stat(walPath)
			if err != nil {
				t.Fatal(err)
			}
			// Cut into the last frame's payload.
			if err := os.Truncate(walPath, st.Size()-5); err != nil {
				t.Fatal(err)
			}
		},
		"short-header": func(t *testing.T, walPath string) {
			f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			// A crash after 3 bytes of the next frame's header.
			if _, err := f.Write([]byte{0x01, 0x02, 0x03}); err != nil {
				t.Fatal(err)
			}
		},
		"checksum-mismatch": func(t *testing.T, walPath string) {
			f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			// A full frame whose payload does not match its CRC.
			payload := []byte(`{"key":{"section":"evil","env":"e"}}`)
			frame := make([]byte, kvFrameHeader+len(payload))
			binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
			binary.LittleEndian.PutUint32(frame[4:8], 0xdeadbeef)
			copy(frame[kvFrameHeader:], payload)
			if _, err := f.Write(frame); err != nil {
				t.Fatal(err)
			}
		},
		"implausible-length": func(t *testing.T, walPath string) {
			f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			header := make([]byte, kvFrameHeader)
			binary.LittleEndian.PutUint32(header[0:4], kvMaxFrame+1)
			if _, err := f.Write(header); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, breakWAL := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenKV(dir)
			if err != nil {
				t.Fatal(err)
			}
			kvPut(t, s, "alpha", "e1", 1)
			kvPut(t, s, "beta", "e1", 1)
			walPath := filepath.Join(dir, kvWALName)
			preSize := func() int64 {
				st, err := os.Stat(walPath)
				if err != nil {
					t.Fatal(err)
				}
				return st.Size()
			}()

			breakWAL(t, walPath)

			s2, err := OpenKV(dir)
			if err != nil {
				t.Fatalf("damaged WAL must open, got %v", err)
			}
			if s2.LoadWarning() == "" {
				t.Error("no warning for damaged WAL tail")
			}
			// The complete frames survive...
			if _, ok, _ := s2.Get(Key{Section: "beta", Env: "e1"}); !ok {
				// ...except the one the damage cut into.
				if name != "torn-payload" {
					t.Error("complete frame lost to tail damage")
				}
			}
			if _, ok, _ := s2.Get(Key{Section: "alpha", Env: "e1"}); !ok {
				t.Error("first frame lost to tail damage")
			}
			// The damaged record is never visible.
			if _, ok, _ := s2.Get(Key{Section: "evil", Env: "e"}); ok {
				t.Error("corrupt frame surfaced a record")
			}
			// The damaged suffix is physically gone, so the next append
			// starts from a clean boundary.
			st, err := os.Stat(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() > preSize {
				t.Errorf("WAL still %d bytes after truncation, had %d before damage", st.Size(), preSize)
			}
			// And the store keeps working.
			kvPut(t, s2, "gamma", "e1", 1)
			s3, err := OpenKV(dir)
			if err != nil {
				t.Fatal(err)
			}
			if s3.LoadWarning() != "" {
				t.Errorf("repaired WAL still warns: %q", s3.LoadWarning())
			}
			if _, ok, _ := s3.Get(Key{Section: "gamma", Env: "e1"}); !ok {
				t.Error("write after repair lost")
			}
		})
	}
}

func TestKVCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenKV(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		kvPut(t, s, "alpha", "e1", uint64(i+1))
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// The WAL is empty, the snapshot holds everything.
	st, err := os.Stat(filepath.Join(dir, kvWALName))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 0 {
		t.Errorf("WAL %d bytes after compaction, want 0", st.Size())
	}
	if _, err := os.Stat(filepath.Join(dir, kvSnapshotName)); err != nil {
		t.Fatalf("no snapshot after compaction: %v", err)
	}
	// Writes after compaction land in the WAL again; reopen folds both.
	kvPut(t, s, "beta", "e1", 1)
	s2, err := OpenKV(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, ok, _ := s2.Get(Key{Section: "alpha", Env: "e1"})
	if !ok || a.Clock != 6 {
		t.Errorf("alpha: ok=%v clock=%d, want clock 6 from snapshot", ok, a.Clock)
	}
	if _, ok, _ := s2.Get(Key{Section: "beta", Env: "e1"}); !ok {
		t.Error("post-compaction write lost")
	}
}

func TestKVCloseCompactsAndReopens(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenKV(dir)
	if err != nil {
		t.Fatal(err)
	}
	kvPut(t, s, "alpha", "e1", 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(VersionedRecord{Key: Key{Section: "x", Env: "e"}, Record: sampleRecord("x")}, 0); err == nil {
		t.Error("Put after Close succeeded")
	}
	s2, err := OpenKV(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s2.Get(Key{Section: "alpha", Env: "e1"}); !ok {
		t.Error("record lost across Close/reopen")
	}
}

// dirNames lists a directory's entries, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// reopenKV closes s and opens its directory again.
func reopenKV(t *testing.T, s *KVStore) *KVStore {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenKV(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	return s2
}

func TestKVRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenKV(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.LoadWarning() != "" {
		t.Errorf("empty directory produced warning %q", s.LoadWarning())
	}
	if err := s.Save(sampleRecord("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(sampleRecord("beta")); err != nil {
		t.Fatal(err)
	}

	// A fresh open must see both records.
	s2 := reopenKV(t, s)
	names, err := s2.Sections()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
		t.Fatalf("sections = %v", names)
	}
	got, ok, err := s2.Load("alpha")
	if !ok || err != nil {
		t.Fatalf("load alpha: ok=%v err=%v", ok, err)
	}
	want := sampleRecord("alpha")
	if got.Winner != want.Winner || got.WinnerOverhead != want.WinnerOverhead ||
		got.Fingerprint != want.Fingerprint || len(got.Policies) != 2 {
		t.Errorf("round trip mismatch: %+v", got)
	}

	// Close compacts: the snapshot is complete, parseable JSON with the
	// current schema (atomic rename, never a torn write).
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, kvSnapshotName))
	if err != nil {
		t.Fatal(err)
	}
	var sc fileSchema
	if err := json.Unmarshal(data, &sc); err != nil {
		t.Fatalf("snapshot not parseable: %v", err)
	}
	if sc.Schema != SchemaVersion || len(sc.Records) != 2 {
		t.Errorf("snapshot schema=%d records=%d, want schema %d with 2 records",
			sc.Schema, len(sc.Records), SchemaVersion)
	}
	// No leftover temporary files.
	if names := dirNames(t, dir); len(names) != 2 || names[0] != kvSnapshotName || names[1] != kvWALName {
		t.Errorf("directory = %v, want just the snapshot and the log", names)
	}
}

func TestKVCorruptSnapshotLoadsEmpty(t *testing.T) {
	cases := map[string]string{
		"garbage":   "not json at all {{{",
		"truncated": `{"schema":1,"records":{"sec":{"section":"sec","win`,
		"empty":     "",
	}
	for name, content := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, kvSnapshotName), []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := OpenKV(dir)
			if err != nil {
				t.Fatalf("corrupt snapshot must load as empty, got error %v", err)
			}
			if s.LoadWarning() == "" {
				t.Error("no warning for corrupt snapshot")
			}
			if names, _ := s.Sections(); len(names) != 0 {
				t.Errorf("corrupt store not empty: %v", names)
			}
			// The store must remain usable, and Close's compaction
			// repairs the snapshot.
			if err := s.Save(sampleRecord("sec")); err != nil {
				t.Fatal(err)
			}
			s2 := reopenKV(t, s)
			if s2.LoadWarning() != "" {
				t.Fatalf("repaired snapshot still warns: %q", s2.LoadWarning())
			}
			if _, ok, _ := s2.Load("sec"); !ok {
				t.Error("write after repair lost")
			}
		})
	}
}

// TestKVTornTempNeverVisible simulates a crash mid-compaction: the
// temporary sibling a crashed writeFileAtomic leaves behind must never be
// read as the snapshot, must not shadow the real one, and is swept away
// by the next open.
func TestKVTornTempNeverVisible(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenKV(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(sampleRecord("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A crash between CreateTemp and rename leaves a torn temp sibling.
	torn := filepath.Join(dir, kvSnapshotName+".tmp123456")
	if err := os.WriteFile(torn, []byte(`{"schema":2,"records":[{"key":{"sec`), 0o600); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenKV(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.LoadWarning() != "" {
		t.Errorf("torn temp file tainted the load: %q", s2.LoadWarning())
	}
	got, ok, err := s2.Load("alpha")
	if !ok || err != nil || got.Winner != "a" {
		t.Fatalf("real snapshot not loaded: ok=%v err=%v winner=%q", ok, err, got.Winner)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Error("stale snapshot temp not swept on open")
	}
	if names := dirNames(t, dir); len(names) != 2 || names[0] != kvSnapshotName || names[1] != kvWALName {
		t.Errorf("directory = %v, want just the snapshot and the log", names)
	}
	// And a Put through the fresh handle still round-trips durably.
	if err := s2.Save(sampleRecord("beta")); err != nil {
		t.Fatal(err)
	}
	s3 := reopenKV(t, s2)
	if names, _ := s3.Sections(); len(names) != 2 {
		t.Errorf("sections after repair = %v, want 2", names)
	}
}

func TestKVSchemaMismatchLoadsEmpty(t *testing.T) {
	dir := t.TempDir()
	future := fmt.Sprintf(`{"schema":%d,"records":{"sec":{"section":"sec"}}}`, SchemaVersion+1)
	if err := os.WriteFile(filepath.Join(dir, kvSnapshotName), []byte(future), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenKV(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.LoadWarning() == "" {
		t.Error("no warning for schema mismatch")
	}
	if _, ok, _ := s.Load("sec"); ok {
		t.Error("record from a different schema version surfaced")
	}
}

// TestKVMigratesSchemaV1 places a pre-fleet, section-keyed policy file as
// the snapshot: its records load under the default tenant and their
// fingerprint's environment, and Close rewrites them in the current
// schema.
func TestKVMigratesSchemaV1(t *testing.T) {
	dir := t.TempDir()
	rec := sampleRecord("sec")
	v1, err := json.Marshal(fileSchemaV1{Schema: 1, Records: map[string]Record{"sec": rec}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, kvSnapshotName), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenKV(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.LoadWarning() != "" {
		t.Errorf("schema-1 snapshot produced warning %q", s.LoadWarning())
	}
	got, ok, err := s.LoadFor("sec", rec.Fingerprint)
	if !ok || err != nil {
		t.Fatalf("migrated record: ok=%v err=%v", ok, err)
	}
	if got.Winner != rec.Winner || got.Rounds != rec.Rounds || len(got.Policies) != 2 {
		t.Errorf("migrated record mismatch: %+v", got)
	}
	s2 := reopenKV(t, s)
	if _, ok, _ := s2.LoadFor("sec", rec.Fingerprint); !ok {
		t.Error("migrated record lost across Close/reopen")
	}
	data, err := os.ReadFile(filepath.Join(dir, kvSnapshotName))
	if err != nil {
		t.Fatal(err)
	}
	var sc fileSchema
	if err := json.Unmarshal(data, &sc); err != nil || sc.Schema != SchemaVersion {
		t.Errorf("snapshot after Close: schema=%d err=%v, want schema %d", sc.Schema, err, SchemaVersion)
	}
}

func TestKVConcurrentSaves(t *testing.T) {
	s, err := OpenKV(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				rec := sampleRecord(fmt.Sprintf("sec%d", g%4))
				rec.Rounds = i
				if err := s.Save(rec); err != nil {
					t.Errorf("save: %v", err)
					return
				}
				if _, _, err := s.Load("sec0"); err != nil {
					t.Errorf("load: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s2 := reopenKV(t, s)
	names, _ := s2.Sections()
	if len(names) != 4 {
		t.Errorf("sections = %v, want 4", names)
	}
}
