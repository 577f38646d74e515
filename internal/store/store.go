// Package store persists tuning records across sessions: the durable half
// of tuning-as-a-service. The paper's Table 1 point is that search cost,
// not tuned latency, dominates; a measurement paid for once should never
// be paid for again. The store keeps every record appended by any session
// keyed by (device, task fingerprint) and answers two questions for new
// sessions: "what history should warm-start this task set?" and "what is
// the best known schedule per task?" — the latter lets a repeat request
// for an already-tuned (device, network) be served with zero new
// measurements.
//
// On disk a store is a directory of per-device subdirectories, each
// holding append-only JSONL segments (seg-000001.jsonl, ...) in the
// record-log format of measure.WriteRecords/ReadRecords — the same codec
// the measurement fleet speaks on the wire — rotated at a size threshold
// so no file grows unbounded. Appends are one O_APPEND write of
// whole lines under a store-wide lock; a crash can therefore only ever
// truncate the tail of the active segment. Open tolerates exactly that: a
// final line that is cut off (or otherwise unparseable) is dropped and the
// file truncated back to the last complete record, while garbage in the
// middle of a segment — which no crash of this writer can produce — is
// reported as an error.
package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"pruner/internal/costmodel"
	"pruner/internal/ir"
	"pruner/internal/measure"
	"pruner/internal/obs"
)

// Options configure a store.
type Options struct {
	// MaxSegmentBytes rotates the active segment once it would exceed
	// this size; <= 0 selects 4 MiB.
	MaxSegmentBytes int64
	// Sync fsyncs after every append. Durability against power loss at
	// the cost of append latency; the truncated-tail tolerance covers
	// process crashes either way.
	Sync bool
	// Metrics, when non-nil, receives the store's instruments
	// (pruner_store_* — see metrics.go): append/rotation/warm-start
	// counters plus func-backed occupancy gauges sampled at scrape time.
	// nil disables metrics entirely.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 4 << 20
	}
	return o
}

// entry is one indexed record line.
type entry struct {
	line      []byte  // raw JSON, no trailing newline
	latencyUS float64 // -1 marks failed builds
}

// probe is the minimal slice of the record codec the index needs.
type probe struct {
	TaskID    string  `json:"task_id"`
	LatencyUS float64 `json:"latency_us"`
}

// shard is one device's segments and index.
type shard struct {
	dir     string
	file    *os.File // active segment, O_APPEND
	size    int64
	seq     int
	order   []string           // task IDs in first-seen order
	tasks   map[string][]entry // taskID -> entries in append order
	records int
}

// Store is a durable tuning-record store. All methods are safe for
// concurrent use.
type Store struct {
	dir  string
	opts Options

	mu      sync.Mutex
	shards  map[string]*shard
	records int
	dropped int // truncated tail lines discarded at Open

	metrics metrics
}

// Open loads (or creates) the store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, opts: opts, shards: map[string]*shard{}}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		sh, err := s.loadShard(e.Name())
		if err != nil {
			return nil, err
		}
		s.shards[e.Name()] = sh
		s.records += sh.records
	}
	s.initMetrics(opts.Metrics)
	return s, nil
}

func segName(seq int) string { return fmt.Sprintf("seg-%06d.jsonl", seq) }

// loadShard replays one device directory's segments into the index and
// reopens the last segment for append, truncating a torn tail write.
func (s *Store) loadShard(device string) (*shard, error) {
	sh := &shard{dir: filepath.Join(s.dir, device), tasks: map[string][]entry{}}
	names, err := filepath.Glob(filepath.Join(sh.dir, "seg-*.jsonl"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sort.Strings(names)
	for i, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		valid, dropped, err := sh.index(data)
		if err != nil {
			return nil, fmt.Errorf("store: %s: %w", name, err)
		}
		s.dropped += dropped
		if dropped > 0 && int64(valid) < int64(len(data)) {
			// Cut the torn tail off so the next append starts at a
			// record boundary instead of gluing onto half a line.
			if err := os.Truncate(name, int64(valid)); err != nil {
				return nil, fmt.Errorf("store: %w", err)
			}
		}
		if i == len(names)-1 {
			var seq int
			_, _ = fmt.Sscanf(filepath.Base(name), "seg-%06d.jsonl", &seq) // names match the seg-*.jsonl glob
			sh.seq = seq
			sh.size = int64(valid)
		}
	}
	return sh, nil
}

// index folds one segment's bytes into the shard, returning the byte
// length of the valid prefix and how many tail lines were dropped. Only
// the final line may be invalid (torn by a crash); earlier garbage errors.
func (sh *shard) index(data []byte) (valid, dropped int, err error) {
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		line := data[off:]
		terminated := nl >= 0
		if terminated {
			line = data[off : off+nl]
		}
		final := !terminated || off+nl+1 >= len(data)
		if len(bytes.TrimSpace(line)) == 0 {
			if terminated {
				off += nl + 1
				if final {
					valid = off
				}
				continue
			}
			break
		}
		var p probe
		if jerr := json.Unmarshal(line, &p); jerr != nil || p.TaskID == "" {
			if final {
				dropped++
				break
			}
			return valid, dropped, fmt.Errorf("corrupt record mid-segment at byte %d", off)
		}
		if !terminated {
			// Parsed but unterminated: the crash may have cut a longer
			// line at a point that still forms valid JSON. Only a
			// newline proves the write completed; drop it.
			dropped++
			break
		}
		if sh.tasks[p.TaskID] == nil {
			sh.order = append(sh.order, p.TaskID)
		}
		sh.tasks[p.TaskID] = append(sh.tasks[p.TaskID], entry{line: append([]byte(nil), line...), latencyUS: p.LatencyUS})
		sh.records++
		off += nl + 1
		valid = off
	}
	return valid, dropped, nil
}

// openSegment opens (creating if needed) the shard's current segment for
// append and records its size.
func (sh *shard) openSegment() error {
	f, err := os.OpenFile(filepath.Join(sh.dir, segName(sh.seq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close() // already failing; Stat's error wins
		return fmt.Errorf("store: %w", err)
	}
	sh.file = f
	sh.size = st.Size()
	return nil
}

// DeviceKey normalises a device name into a store shard key (and
// directory name): lowercase, with runs of non-alphanumerics collapsed
// to single dashes ("Titan V" -> "titan-v").
func DeviceKey(name string) string {
	var b strings.Builder
	dash := false
	for _, r := range strings.ToLower(strings.TrimSpace(name)) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
			dash = false
		default:
			if !dash && b.Len() > 0 {
				b.WriteByte('-')
				dash = true
			}
		}
	}
	return strings.TrimSuffix(b.String(), "-")
}

// Append durably adds a session's records under the device key. The
// records are encoded with the tuner's record codec and written as one
// O_APPEND write, so concurrent appends interleave only at line
// granularity and a crash can only truncate the tail.
func (s *Store) Append(device string, recs []costmodel.Record) error {
	if len(recs) == 0 {
		return nil
	}
	device = DeviceKey(device)
	if device == "" {
		return fmt.Errorf("store: empty device key")
	}
	var buf bytes.Buffer
	if err := measure.WriteRecords(&buf, recs); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	payload := buf.Bytes()

	s.mu.Lock()
	defer s.mu.Unlock()
	sh := s.shards[device]
	if sh == nil {
		sh = &shard{dir: filepath.Join(s.dir, device), tasks: map[string][]entry{}}
		if err := os.MkdirAll(sh.dir, 0o755); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		s.shards[device] = sh
	}
	if sh.seq == 0 {
		sh.seq = 1
	}
	if sh.file == nil {
		if err := sh.openSegment(); err != nil {
			return err
		}
	}
	if sh.size > 0 && sh.size+int64(len(payload)) > s.opts.MaxSegmentBytes {
		_ = sh.file.Close() // O_APPEND writes are unbuffered; the data already hit the kernel
		sh.file = nil
		sh.seq++
		if err := sh.openSegment(); err != nil {
			return err
		}
		s.metrics.rotations.Inc()
	}
	if _, err := sh.file.Write(payload); err != nil {
		// The write may have landed partially (ENOSPC, I/O error). Never
		// append after a possibly-torn tail: seal this segment — reload
		// tolerates a torn final line per segment — and let the next
		// append start a fresh one, keeping the garbage in final (i.e.
		// recoverable) position forever.
		_ = sh.file.Close() // sealing a torn segment; the write error wins
		sh.file = nil
		sh.seq++
		return fmt.Errorf("store: %w", err)
	}
	if s.opts.Sync {
		if err := sh.file.Sync(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	sh.size += int64(len(payload))

	// Index what was just written through the same fold a reload uses, so
	// the live index and a post-restart index can never disagree about
	// the codec's sentinels.
	before := sh.records
	if _, dropped, err := sh.index(payload); err != nil || dropped > 0 {
		return fmt.Errorf("store: re-indexing appended records (dropped %d): %v", dropped, err)
	}
	s.records += sh.records - before
	s.metrics.appends.Inc()
	s.metrics.appendedRecords.Add(float64(sh.records - before))
	return nil
}

// WarmStart returns the device's history for the given tasks as decoded
// records, suitable for tuner.Options.WarmStart / pruner.Config.WarmStart.
// Order is deterministic: tasks in argument order, each task's records in
// append order — so identical store contents warm-start identical
// sessions (the reproducibility contract extends across the store).
func (s *Store) WarmStart(device string, tasks []*ir.Task) ([]costmodel.Record, error) {
	device = DeviceKey(device)
	var buf bytes.Buffer
	s.mu.Lock()
	if sh := s.shards[device]; sh != nil {
		for _, t := range tasks {
			for _, e := range sh.tasks[t.ID] {
				buf.Write(e.line)
				buf.WriteByte('\n')
			}
		}
	}
	s.mu.Unlock()
	if buf.Len() == 0 {
		s.metrics.warmMiss.Inc()
		return nil, nil
	}
	recs, err := measure.ReadRecords(&buf, tasks)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.metrics.warmHit.Inc()
	s.metrics.warmRecords.Add(float64(len(recs)))
	return recs, nil
}

// Best is the store's best known schedule for one task on one device.
type Best struct {
	TaskID    string
	LatencyUS float64         // best valid latency (microseconds)
	Line      json.RawMessage // the full record line of the best measurement
	Records   int             // total stored measurements for the task
}

// BestForTasks returns the best valid record per requested task ID; tasks
// with no valid (successfully built) measurement are absent from the map.
func (s *Store) BestForTasks(device string, taskIDs []string) map[string]Best {
	device = DeviceKey(device)
	out := map[string]Best{}
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := s.shards[device]
	if sh == nil {
		return out
	}
	for _, id := range taskIDs {
		entries := sh.tasks[id]
		best := Best{TaskID: id, LatencyUS: -1, Records: len(entries)}
		for _, e := range entries {
			if e.latencyUS > 0 && (best.LatencyUS < 0 || e.latencyUS < best.LatencyUS) {
				best.LatencyUS = e.latencyUS
				best.Line = json.RawMessage(e.line)
			}
		}
		if best.LatencyUS > 0 {
			out[id] = best
		}
	}
	return out
}

// Covered reports whether the device's history is deep enough to answer
// a request outright — the daemon's cache-hit predicate: every task has a
// valid best AND at least minTotal records are stored across the task set
// in total. The floor keeps a tiny or interrupted session from poisoning
// the cache: a 2000-trial request over a store holding one lucky round
// per task should warm-start a real search (which deepens the store), not
// be served that round forever.
func (s *Store) Covered(device string, tasks []*ir.Task, minTotal int) bool {
	ids := make([]string, len(tasks))
	for i, t := range tasks {
		ids[i] = t.ID
	}
	best := s.BestForTasks(device, ids)
	covered := len(best) == len(tasks)
	if covered {
		total := 0
		for _, b := range best {
			total += b.Records
		}
		covered = total >= minTotal
	}
	if covered {
		s.metrics.coveredHit.Inc()
	} else {
		s.metrics.coveredMiss.Inc()
	}
	return covered
}

// Stats summarise the store for health endpoints.
type Stats struct {
	Devices int `json:"devices"`
	Records int `json:"records"`
	Dropped int `json:"dropped_tail_lines"`
}

// Stats returns current store statistics.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Devices: len(s.shards), Records: s.records, Dropped: s.dropped}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Close releases the active segment files. The store must not be used
// afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, sh := range s.shards {
		if sh.file != nil {
			if err := sh.file.Close(); err != nil && first == nil {
				first = err
			}
			sh.file = nil
		}
	}
	return first
}
