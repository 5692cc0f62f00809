package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// tempPattern names a put's temp file, for os.CreateTemp and for sweep.
// staleTempAge is how old one must be before sweep treats it as the leftover
// of a writer killed between CreateTemp and Rename: a put takes under a
// millisecond (bench: core.diskcache_put_us), but anything younger may still
// belong to a live writer in another process.
const (
	tempPattern  = "put-*.tmp"
	staleTempAge = time.Hour
)

// envelope is the on-disk form of every record, whatever its kind: the build
// fingerprint gate, the key the record was filed under (it must equal the
// key in the file name, so a record copied or renamed onto another key's path
// is never replayed as that key's), and the payload.
type envelope[T any] struct {
	Fingerprint string `json:"fingerprint"`
	Key         string `json:"key"`
	Record      *T     `json:"record"`
}

// recordStore is the one persistent store behind the run cache and the
// mapping registry (docs/RUNCACHE.md "Record stores"): one JSON
// envelope per key under dir. It is safe for concurrent use by goroutines and
// by processes sharing dir — writes go through a temp file + rename, so a
// reader sees a complete record or none. A record this build cannot trust
// (torn JSON, foreign fingerprint, filed under another key, no payload, or
// rejected by valid) is dead: it reads as a miss, never an error, and is
// removed on the way out so the directory does not accrete one unreachable
// record per key per past build.
type recordStore[T any] struct {
	kind        string // error-message prefix: "cache", "mapping store"
	dir         string
	fingerprint string
	// valid, when non-nil, is the kind's own structural gate; it may also
	// normalize the record in place. false = dead.
	valid func(*T) bool
}

// newRecordStore opens (creating on first put) a store rooted at dir.
// fingerprint "" selects BuildFingerprint().
func newRecordStore[T any](kind, dir, fingerprint string, valid func(*T) bool) *recordStore[T] {
	if fingerprint == "" {
		fingerprint = BuildFingerprint()
	}
	return &recordStore[T]{kind: kind, dir: dir, fingerprint: fingerprint, valid: valid}
}

// path returns the record file for a key.
func (s *recordStore[T]) path(key string) string {
	return filepath.Join(s.dir, key+".json")
}

// get loads the record filed under key. An absent or dead record is a miss
// (false); only unexpected I/O failures surface as errors.
func (s *recordStore[T]) get(key string) (*T, bool, error) {
	rec, _, err := s.load(key)
	return rec, rec != nil, err
}

// load is get that also reports whether it removed a dead record (sweep
// counts those). A failed removal is not an error: a concurrent process may
// have removed or replaced the record already, and the next put overwrites
// the path either way.
func (s *recordStore[T]) load(key string) (rec *T, removed bool, err error) {
	path := s.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("%s: read %s: %w", s.kind, key, err)
	}
	var env envelope[T]
	if json.Unmarshal(data, &env) != nil || env.Fingerprint != s.fingerprint || env.Key != key ||
		env.Record == nil || (s.valid != nil && !s.valid(env.Record)) {
		return nil, os.Remove(path) == nil, nil
	}
	return env.Record, false, nil
}

// put files rec under key, atomically: concurrent writers of one key and
// readers in other processes always see a complete record.
func (s *recordStore[T]) put(key string, rec *T) error {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("%s: %w", s.kind, err)
	}
	data, err := json.MarshalIndent(envelope[T]{Fingerprint: s.fingerprint, Key: key, Record: rec}, "", " ")
	if err != nil {
		return fmt.Errorf("%s: encode %s: %w", s.kind, key, err)
	}
	tmp, err := os.CreateTemp(s.dir, tempPattern)
	if err != nil {
		return fmt.Errorf("%s: %w", s.kind, err)
	}
	_, err = tmp.Write(append(data, '\n'))
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), s.path(key))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("%s: write %s: %w", s.kind, key, err)
	}
	return nil
}

// sweep removes every dead record in dir, plus temp files abandoned by a
// writer that died mid-put, and reports how many files it removed. Records
// for keys this build simply has not asked for yet are live and stay.
// Subdirectories and foreign files are not touched; a missing dir is empty.
func (s *recordStore[T]) sweep() (int, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil
		}
		return 0, fmt.Errorf("%s: sweep: %w", s.kind, err)
	}
	removed := 0
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if key, ok := strings.CutSuffix(name, ".json"); ok {
			// Read errors are a concurrent remove/replace: skip.
			if _, dead, _ := s.load(key); dead {
				removed++
			}
		} else if ok, _ := filepath.Match(tempPattern, name); ok {
			if info, err := e.Info(); err == nil && time.Since(info.ModTime()) > staleTempAge &&
				os.Remove(filepath.Join(s.dir, name)) == nil {
				removed++
			}
		}
	}
	return removed, nil
}
