package schedule

import (
	"sync"

	"pruner/internal/ir"
)

// Memo caches lowered programs by schedule structure, so one tuning
// round lowers (and, through Lowered's feature cache, featurizes) each
// candidate exactly once across draft scoring and cost-model
// verification — instead of once for each.
// It is safe for concurrent use by pool workers; Lower is a pure function
// of (task, schedule), so memoization cannot change any computed value.
// Entries are bucketed by Schedule.Key and matched with Schedule.Same
// against each entry's Lowered.Sched: the draft never builds a
// fingerprint to look a candidate up.
//
// A Memo is scoped to one task: the tuner creates a fresh one per
// measurement round, which both bounds memory and keeps cache entries
// from outliving the round's candidate pool.
type Memo struct {
	mu   sync.Mutex
	task *ir.Task
	m    map[uint64][]*Lowered
	n    int
}

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	return &Memo{m: make(map[uint64][]*Lowered)}
}

// Lower returns the memoized lowering of (t, s), computing and caching it
// on first sight. A nil memo degrades to plain Lower, so call sites never
// special-case "no memo". When two workers race on structurally equal
// schedules the first stored instance wins, keeping feature caches
// shared.
//
//pruner:hotpath
func (m *Memo) Lower(t *ir.Task, s *Schedule) *Lowered {
	if m == nil {
		return Lower(t, s)
	}
	k := s.Key()
	m.mu.Lock()
	// The cache keys by schedule structure alone, so one memo must only
	// ever see one task; fail loudly on misuse rather than serve another
	// task's lowering.
	if m.task == nil {
		m.task = t
	} else if m.task != t {
		m.mu.Unlock()
		panic("schedule: Memo shared across tasks (it is scoped to one task per round)")
	}
	lw := m.find(k, s)
	m.mu.Unlock()
	if lw != nil {
		return lw
	}
	lw = Lower(t, s)
	m.mu.Lock()
	if prev := m.find(k, s); prev != nil {
		lw = prev
	} else {
		bucket := m.m[k]
		if bucket == nil {
			bucket = make([]*Lowered, 0, 1)
		}
		m.m[k] = append(bucket, lw)
		m.n++
	}
	m.mu.Unlock()
	return lw
}

// find returns the cached lowering of the schedule structurally equal to
// s, whose key is k, or nil. The caller holds mu.
func (m *Memo) find(k uint64, s *Schedule) *Lowered {
	for _, lw := range m.m[k] {
		if lw.Sched.Same(s) {
			return lw
		}
	}
	return nil
}

// Len reports the number of cached programs, one per distinct schedule.
// Entries are never deleted, so it is also how many lowerings the memo
// stored — what the training-engine tests use to pin "each record is
// lowered and featurized once per session".
func (m *Memo) Len() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
}
