package core

import "runtime/debug"

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
// v5: Stats grew the mapping-provenance fields (MappingSource, MappedRanges,
// LearnPCIeSaved) and endLearning skips the copy/invalidate/freeze when the
// chosen mapping is already in force — v4 records would replay without the
// provenance the mapping registry and reports read.
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
const cacheSchemaVersion = "tomcache/v10"

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

// DiskCache is the persistent result layer: one verified RunResult per run
// spec digest under dir, kept by a recordStore (see there for the
// concurrency and dead-record rules).
type DiskCache struct {
	*recordStore[RunResult]
}

// NewDiskCache opens (creating if needed on first Put) a cache rooted at
// dir. fingerprint gates record validity; pass "" for BuildFingerprint().
func NewDiskCache(dir, fingerprint string) *DiskCache {
	return &DiskCache{newRecordStore[RunResult]("cache", dir, fingerprint, nil)}
}

// Dir returns the cache root.
func (c *DiskCache) Dir() string { return c.dir }

// Get loads the cached result for a spec digest. A missing or dead record
// is a miss (false); only unexpected I/O failures surface as errors.
func (c *DiskCache) Get(digest string) (*RunResult, bool, error) {
	return c.get(digest)
}

// Put stores a verified result under the spec's digest.
func (c *DiskCache) Put(spec RunSpec, res *RunResult) error {
	return c.put(spec.Digest(), res)
}

// Sweep removes everything under the cache directory that this build can
// never replay — dead run records, and dead records of the mapping registry
// that lives in its mappings/ subdirectory — and reports how many files went.
// Long-running servers call it at startup so a cache directory that outlives
// many builds holds only what the serving binary can use.
func (c *DiskCache) Sweep() (int, error) {
	n, err := c.sweep()
	if err != nil {
		return n, err
	}
	m, err := newMappingStore(c.dir, c.fingerprint).sweep()
	return n + m, err
}
