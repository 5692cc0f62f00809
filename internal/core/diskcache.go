package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"
)

// cacheSchemaVersion is bumped whenever the record layout (or the meaning
// of any serialized statistic) changes; it is folded into the fingerprint
// so old caches self-invalidate instead of deserializing garbage.
// v2: ack packets charge the full offload header (sim/types.go), Stats
// gained the per-PC gate table + nodest counter, and specs can carry an
// adaptive-feedback component — v1 records describe a different machine.
// v3: the adaptive component grew the cost model and the iterated-loop
// identity (v2 digests aliased adaptive runs that differed only in cost
// constants), the simulator derives its marking cost model from the installed
// feedback parameters, and profiling passes carry their own adapt marker.
// v4: exact quiescence detection (cycle counts no longer overshoot drain by
// up to 63 cycles) and window-boundary-exact channel-busy reads — v3 cycle
// counts and gate decisions describe the old loop.
// v5: Stats grew the mapping-provenance fields (MappingSource, MappedRanges
// and the PCIe bytes a stored install saved) and endLearning skipped the
// copy/invalidate/freeze when the chosen mapping was already in force — v4
// records would replay without the provenance the mapping registry and
// reports read.
// v6: records sit in one envelope {fingerprint, key, record} whose key must
// equal the file name's — v5's flat records carry no key.
// v7: the compile-time gate-feedback loop is gone: Stats lost its two
// refinement counters and specs their adaptive component, so v6 records of
// adaptive passes are keyed by digests nothing derives any more — the bump
// makes them dead, and the startup sweep collects them.
// v8: every digest moved — the ideal configuration is the "ideal" policy
// rather than an offload mode, configurations name their policy ("tom" by
// default) instead of leaving it empty, and the unread fixed-bit mapping
// fields left the canonical configuration.
// v9: every digest moved again — the offload policy is a table row whose
// constants the build fingerprint covers, so the digest no longer folds a
// "policy=name{params}" suffix after the canonical configuration.
// v10: every digest moved — the memory geometry (stacks, vaults per stack,
// banks, row size) is a set of mapping constants, not configuration fields,
// so it left the canonical configuration. The model did not change.
// v11: the persistent mapping registry is gone, and with it the field of
// Stats that counted the PCIe bytes a stored install saved and the install
// fold of the spec digest; mappings/ is no longer read. The model did not
// change.
// v12: every digest moved — the canonical configuration lost Offload and
// ALUGate: offload control, the ALU gate and the no-offload baseline are
// offload-policy rows ("noctrl", "tom-alu", "none") named by Policy. The
// record layout and the model did not change, so a v11 record describes the
// same run; only its key is gone.
// v13: the model changed — a warp whose pipeline latency runs out during
// the mapping-install freeze is ready when the freeze ends, instead of up to
// 63 cycles later when its per-SM timer slot next comes round. Every cell
// that closes a learning phase after observing an instance runs a different
// number of cycles, and v12 records of them describe the old machine.
const cacheSchemaVersion = "tomcache/v13"

// BuildFingerprint identifies the producing build: the cache schema version
// plus, when the binary carries VCS stamps, the revision and dirty flag.
// Records whose fingerprint differs from the reading binary's are treated
// as misses, so results from an older simulator never leak into new tables.
func BuildFingerprint() string {
	fp := cacheSchemaVersion
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision", "vcs.modified":
				fp += ";" + s.Key + "=" + s.Value
			}
		}
	}
	return fp
}

// tempPattern names a put's temp file, for os.CreateTemp and for Sweep.
// staleTempAge is how old one must be before Sweep treats it as the leftover
// of a writer killed between CreateTemp and Rename: a put takes under a
// millisecond (bench: core.diskcache_put_us), but anything younger may still
// belong to a live writer in another process.
const (
	tempPattern  = "put-*.tmp"
	staleTempAge = time.Hour
)

// DiskCache is the persistent result layer (docs/RUNCACHE.md): one verified
// RunResult per run spec digest under dir, in an envelope. It is safe for
// concurrent use by goroutines and by processes sharing dir — writes go
// through a temp file + rename, so a reader sees a complete record or none.
// A record this build cannot trust (torn JSON, foreign fingerprint, filed
// under another key, or no payload) is dead: it reads as a miss, never an
// error, and is removed on the way out so the directory does not accrete one
// unreachable record per key per past build.
type DiskCache struct {
	dir         string
	fingerprint string
}

// envelope is a record's on-disk form: the build fingerprint gate, the key
// the record was filed under (it must equal the key in the file name, so a
// record copied or renamed onto another key's path is never replayed as that
// key's), and the result.
type envelope struct {
	Fingerprint string     `json:"fingerprint"`
	Key         string     `json:"key"`
	Record      *RunResult `json:"record"`
}

// NewDiskCache opens (creating if needed on first Put) a cache rooted at
// dir. fingerprint gates record validity; pass "" for BuildFingerprint().
func NewDiskCache(dir, fingerprint string) *DiskCache {
	if fingerprint == "" {
		fingerprint = BuildFingerprint()
	}
	return &DiskCache{dir: dir, fingerprint: fingerprint}
}

// Dir returns the cache root.
func (c *DiskCache) Dir() string { return c.dir }

// path returns the record file for a key.
func (c *DiskCache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Get loads the cached result for a spec digest. A missing or dead record
// is a miss (false); only unexpected I/O failures surface as errors.
func (c *DiskCache) Get(digest string) (*RunResult, bool, error) {
	rec, _, err := c.load(digest)
	return rec, rec != nil, err
}

// load is Get that also reports whether it removed a dead record (Sweep
// counts those). A failed removal is not an error: a concurrent process may
// have removed or replaced the record already, and the next put overwrites
// the path either way.
func (c *DiskCache) load(key string) (rec *RunResult, removed bool, err error) {
	path := c.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("cache: read %s: %w", key, err)
	}
	var env envelope
	if json.Unmarshal(data, &env) != nil || env.Fingerprint != c.fingerprint || env.Key != key || env.Record == nil {
		return nil, os.Remove(path) == nil, nil
	}
	return env.Record, false, nil
}

// Put stores a verified result under the spec's digest.
func (c *DiskCache) Put(spec RunSpec, res *RunResult) error {
	return c.put(spec.Digest(), res)
}

// put files rec under key, atomically: concurrent writers of one key and
// readers in other processes always see a complete record.
func (c *DiskCache) put(key string, rec *RunResult) error {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	data, err := json.MarshalIndent(envelope{Fingerprint: c.fingerprint, Key: key, Record: rec}, "", " ")
	if err != nil {
		return fmt.Errorf("cache: encode %s: %w", key, err)
	}
	tmp, err := os.CreateTemp(c.dir, tempPattern)
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	_, err = tmp.Write(append(data, '\n'))
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), c.path(key))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: write %s: %w", key, err)
	}
	return nil
}

// Sweep removes every dead record in the cache directory, plus temp files
// abandoned by a writer that died mid-put, and reports how many files went.
// Records for keys this build simply has not asked for yet are live and
// stay. Subdirectories (an older build's mappings/ or feedback/) and foreign
// files are not touched; a missing directory is empty. Long-running servers
// call it at startup so a cache directory that outlives many builds holds
// only what the serving binary can use.
func (c *DiskCache) Sweep() (int, error) {
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil
		}
		return 0, fmt.Errorf("cache: sweep: %w", err)
	}
	removed := 0
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if key, ok := strings.CutSuffix(name, ".json"); ok {
			// Read errors are a concurrent remove/replace: skip.
			if _, dead, _ := c.load(key); dead {
				removed++
			}
		} else if ok, _ := filepath.Match(tempPattern, name); ok {
			if info, err := e.Info(); err == nil && time.Since(info.ModTime()) > staleTempAge &&
				os.Remove(filepath.Join(c.dir, name)) == nil {
				removed++
			}
		}
	}
	return removed, nil
}
