package tuner

import (
	"math"

	"pruner/internal/costmodel"
)

// BestByTask reduces a record log to the best valid schedule per task.
func BestByTask(recs []costmodel.Record) map[string]BestEntry {
	best := map[string]BestEntry{}
	for _, r := range recs {
		if math.IsInf(r.Latency, 1) {
			continue
		}
		cur, ok := best[r.Task.ID]
		if !ok || r.Latency < cur.Latency {
			best[r.Task.ID] = BestEntry{Task: r.Task, Sched: r.Sched, Latency: r.Latency}
		}
	}
	return best
}
