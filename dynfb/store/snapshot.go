package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// fileSchema is the on-disk envelope of a KVStore snapshot: the schema
// version and the keyed, versioned records.
type fileSchema struct {
	Schema  int               `json:"schema"`
	Records []VersionedRecord `json:"records"`
}

// fileSchemaV1 is the original envelope: a section-keyed map of records
// from before keys carried tenants and environments. It is migrated on
// load so a pre-fleet policy file keeps its knowledge.
type fileSchemaV1 struct {
	Schema  int               `json:"schema"`
	Records map[string]Record `json:"records"`
}

// decodeRecords parses a store file (either schema), tolerating damage:
// the second result is a warning describing why the result is empty (""
// when the file decoded cleanly).
func decodeRecords(data []byte, path string) (map[Key]VersionedRecord, string) {
	recs := map[Key]VersionedRecord{}
	var probe struct {
		Schema int `json:"schema"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return recs, fmt.Sprintf("corrupt store file %s ignored: %v", path, err)
	}
	switch probe.Schema {
	case 1:
		var sc fileSchemaV1
		if err := json.Unmarshal(data, &sc); err != nil {
			return recs, fmt.Sprintf("corrupt store file %s ignored: %v", path, err)
		}
		for name, rec := range sc.Records {
			rec.Section = name
			k := Key{Section: name, Env: rec.Fingerprint.Hash()}
			recs[k] = VersionedRecord{Key: k, Version: 1, Clock: 1, Record: rec}
		}
		return recs, ""
	case SchemaVersion:
		var sc fileSchema
		if err := json.Unmarshal(data, &sc); err != nil {
			return recs, fmt.Sprintf("corrupt store file %s ignored: %v", path, err)
		}
		for _, vr := range sc.Records {
			if vr.Key.Validate() != nil {
				continue
			}
			vr.Record.Section = vr.Key.Section
			recs[vr.Key] = vr
		}
		return recs, ""
	default:
		return recs, fmt.Sprintf("store file %s has schema %d, want %d; starting empty",
			path, probe.Schema, SchemaVersion)
	}
}

// encodeRecords renders the records in the current schema, sorted by key
// so the output is deterministic (byte-identical files for identical
// contents).
func encodeRecords(recs map[Key]VersionedRecord) ([]byte, error) {
	sc := fileSchema{Schema: SchemaVersion, Records: make([]VersionedRecord, 0, len(recs))}
	for _, vr := range recs {
		sc.Records = append(sc.Records, vr)
	}
	sort.Slice(sc.Records, func(i, j int) bool { return sc.Records[i].Key.less(sc.Records[j].Key) })
	data, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return data, nil
}

// writeFileAtomic writes data to path through a fsynced temporary sibling
// and an atomic rename, then fsyncs the directory so the rename itself
// survives a crash. Readers never observe a torn file: the temporary name
// carries a ".tmp" suffix readers ignore, and the final name only ever
// points at complete contents.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	// The data must be on stable storage before the rename publishes the
	// name, or a crash can leave a fully renamed but empty/torn file.
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Chmod(tmpName, 0o644); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	// And the rename must reach the directory, or a crash forgets it.
	return syncDir(dir)
}

// syncDir fsyncs a directory; on platforms where directories cannot be
// fsynced the error is ignored (the rename is still atomic, just not
// durably ordered).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !os.IsPermission(err) {
		return fmt.Errorf("store: fsync %s: %w", dir, err)
	}
	return nil
}

// isTempName reports whether a directory entry is one of our in-flight
// temporary files (never to be read as a store).
func isTempName(base, name string) bool {
	return strings.HasPrefix(name, base+".tmp")
}
