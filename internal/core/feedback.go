package core

import (
	"path/filepath"

	"repro/internal/compiler"
)

// FeedbackRecord is the feedback store's payload, one converged refinement:
// a human-readable restatement of the identity (the key in the envelope and
// file name is authoritative), the iteration history, and the merged gate
// profile the full run should apply. A later session that derives the same
// key installs Profile directly — no profiling pass.
type FeedbackRecord struct {
	Workload    string               `json:"workload"`
	Scale       float64              `json:"scale"`
	Config      string               `json:"config"`
	Spec        AdaptSpec            `json:"spec"`
	Iterations  int                  `json:"iterations"`
	Converged   bool                 `json:"converged"`
	ConvergedAt int                  `json:"converged_at,omitempty"`
	History     []AdaptIteration     `json:"history,omitempty"`
	Profile     compiler.GateProfile `json:"profile"`
}

// newFeedbackStore opens the store of converged adaptive refinements, one
// record per (workload, configuration, AdaptSpec) key under
// <cacheDir>/feedback/. A record without a profile is an empty one.
func newFeedbackStore(cacheDir, fingerprint string) *recordStore[FeedbackRecord] {
	return newRecordStore("feedback store", filepath.Join(cacheDir, "feedback"), fingerprint,
		func(r *FeedbackRecord) bool {
			if r.Profile == nil {
				r.Profile = compiler.GateProfile{}
			}
			return true
		})
}

// FeedbackStats summarizes a session's adaptive-control activity: persisted
// feedback-store traffic and iterated-loop progress. The same quantities
// are exported as obs counters (feedback.store_hits, feedback.store_misses,
// adapt.iterations, adapt.converged) when the session carries an observer.
type FeedbackStats struct {
	StoreHits   uint64 // iterated runs served from the persisted store
	StoreMisses uint64 // iterated runs that had to profile
	Iterations  uint64 // profiling iterations executed
	Converged   uint64 // iterated runs that reached a fixed point
}

// FeedbackStats reports the session's adaptive-control activity.
func (s *Session) FeedbackStats() FeedbackStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fb
}

// count adds n to one of the session's FeedbackStats / MappingStats fields
// and to the obs counter that mirrors it.
func (s *Session) count(field *uint64, counter string, n uint64) {
	if n == 0 {
		return
	}
	s.mu.Lock()
	*field += n
	s.mu.Unlock()
	if s.obsv != nil {
		s.obsv.Registry.Counter(counter).Add(n)
	}
}
