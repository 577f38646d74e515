package server

import (
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strings"
	"time"

	"pruner"
)

// The measurer registry: remote measurement workers (cmd/pruner-measure)
// register here and jobs fan their measurement batches out over the live
// fleet. Registration is heartbeat-based — workers re-POST periodically
// and entries older than Config.MeasurerTTL stop being dispatched to —
// so a crashed worker silently drains out of rotation instead of failing
// every batch until an operator notices.

// measurerEntry is one registered worker. Dispatch accounting is not
// kept here: every job's fleet writes per-worker counters straight to
// the daemon's registry (pruner_fleet_*), and views read them back, so
// /v1/measurers, /v1/healthz and /metrics all report the same numbers —
// live mid-job, not only after a fleet finishes.
type measurerEntry struct {
	url          string
	registeredAt time.Time
	lastSeen     time.Time
}

// MeasurerView is the API form of a registered worker.
type MeasurerView struct {
	URL              string `json:"url"`
	Live             bool   `json:"live"`
	RegisteredAtUnix int64  `json:"registered_at_unix"`
	LastSeenUnix     int64  `json:"last_seen_unix"`
	// Batches / Schedules / Failures aggregate the dispatch accounting of
	// every fleet this daemon has run against the worker.
	Batches   int `json:"batches"`
	Schedules int `json:"schedules"`
	Failures  int `json:"failures"`
}

// measurerLocked returns the index of the worker registered at rawURL,
// -1 if none; call with s.mmu held.
func (s *Server) measurerLocked(rawURL string) int {
	return slices.IndexFunc(s.measurers, func(e *measurerEntry) bool { return e.url == rawURL })
}

// registerMeasurer adds (or heartbeats) a worker.
func (s *Server) registerMeasurer(rawURL string) MeasurerView {
	now := time.Now()
	s.mmu.Lock()
	defer s.mmu.Unlock()
	i := s.measurerLocked(rawURL)
	if i < 0 {
		i = len(s.measurers)
		s.measurers = append(s.measurers, &measurerEntry{url: rawURL, registeredAt: now})
		s.cfg.Log.Info("measurer registered", "measurer", rawURL)
	}
	e := s.measurers[i]
	e.lastSeen = now
	return s.viewLocked(e, now)
}

// deregisterMeasurer removes a worker; reports whether it was registered.
func (s *Server) deregisterMeasurer(rawURL string) bool {
	s.mmu.Lock()
	defer s.mmu.Unlock()
	i := s.measurerLocked(rawURL)
	if i < 0 {
		return false
	}
	s.measurers = slices.Delete(s.measurers, i, i+1)
	s.cfg.Log.Info("measurer deregistered", "measurer", rawURL)
	return true
}

// liveMeasurerURLs returns the dispatchable workers in registration order
// (stable order keeps fleet rotation deterministic for a fixed registry).
func (s *Server) liveMeasurerURLs() []string {
	now := time.Now()
	s.mmu.Lock()
	defer s.mmu.Unlock()
	var out []string
	for _, e := range s.measurers {
		if s.liveLocked(e, now) {
			out = append(out, e.url)
		}
	}
	return out
}

func (s *Server) liveLocked(e *measurerEntry, now time.Time) bool {
	return s.cfg.MeasurerTTL <= 0 || now.Sub(e.lastSeen) <= s.cfg.MeasurerTTL
}

func (s *Server) viewLocked(e *measurerEntry, now time.Time) MeasurerView {
	return MeasurerView{
		URL:              e.url,
		Live:             s.liveLocked(e, now),
		RegisteredAtUnix: e.registeredAt.Unix(),
		LastSeenUnix:     e.lastSeen.Unix(),
		Batches:          s.regInt(pruner.MetricFleetBatches, e.url),
		Schedules:        s.regInt(pruner.MetricFleetSchedules, e.url),
		Failures:         s.regInt(pruner.MetricFleetFailures, e.url),
	}
}

// measurerViews snapshots the registry, sorted by URL.
func (s *Server) measurerViews() []MeasurerView {
	now := time.Now()
	s.mmu.Lock()
	out := make([]MeasurerView, 0, len(s.measurers))
	for _, e := range s.measurers {
		out = append(out, s.viewLocked(e, now))
	}
	s.mmu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// regInt reads a registry gauge or counter child as an int (0 when
// absent), so healthz and the measurer views report what /metrics scrapes.
func (s *Server) regInt(name string, labelValues ...string) int {
	v, _ := s.cfg.Obs.Reg().Value(name, labelValues...)
	return int(v)
}

// measurerStats summarises the measurer registry for /v1/healthz, read
// back from the metrics registry so healthz and /metrics agree. Batch
// and failure totals are registry-lifetime sums over every worker a
// fleet ever dispatched to, deregistered ones included.
func (s *Server) measurerStats() map[string]any {
	reg := s.cfg.Obs.Reg()
	return map[string]any{
		"registered": s.regInt(MetricMeasurersRegistered),
		"live":       s.regInt(MetricMeasurersLive),
		"batches":    int(reg.Sum(pruner.MetricFleetBatches)),
		"failures":   int(reg.Sum(pruner.MetricFleetFailures)),
	}
}

// pingMeasurer verifies a registering worker actually answers /healthz,
// so a typo'd URL is rejected at registration instead of failing batches.
func (s *Server) pingMeasurer(rawURL string) error {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(rawURL + "/healthz")
	if err != nil {
		return fmt.Errorf("worker unreachable: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("worker /healthz returned HTTP %d", resp.StatusCode)
	}
	return nil
}

// normalizeWorkerURL canonicalises a worker base URL so registration,
// heartbeats and deregistration all agree on the worker's identity.
// Paths are preserved (a worker may live behind a proxy prefix); only a
// trailing slash is trimmed.
func normalizeWorkerURL(raw string) (string, error) {
	u, err := url.Parse(raw)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("url must be an absolute http(s) base URL, got %q", raw)
	}
	u.Fragment = ""
	u.RawQuery = ""
	return strings.TrimSuffix(u.String(), "/"), nil
}

// handleRegisterMeasurer is POST /v1/measurers: body {"url":"http://..."}.
// Re-POSTing the same URL is the heartbeat: already-known workers just
// refresh lastSeen, WITHOUT re-pinging /healthz — a transient
// daemon-to-worker blip must not reject heartbeats and expire a worker
// that is otherwise serving fine. Only first registration pings, to
// reject typo'd URLs up front.
func (s *Server) handleRegisterMeasurer(w http.ResponseWriter, r *http.Request) {
	var body struct {
		URL string `json:"url"`
	}
	if !decodeBody(w, r, &body) {
		return
	}
	base, err := normalizeWorkerURL(body.URL)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.mmu.Lock()
	known := s.measurerLocked(base) >= 0
	s.mmu.Unlock()
	if !known {
		if err := s.pingMeasurer(base); err != nil {
			writeError(w, http.StatusBadGateway, "%v", err)
			return
		}
	}
	writeJSON(w, http.StatusOK, s.registerMeasurer(base))
}

// handleListMeasurers is GET /v1/measurers.
func (s *Server) handleListMeasurers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"measurers": s.measurerViews()})
}

// handleDeregisterMeasurer is DELETE /v1/measurers?url=http://...
func (s *Server) handleDeregisterMeasurer(w http.ResponseWriter, r *http.Request) {
	rawURL := r.URL.Query().Get("url")
	if rawURL == "" {
		writeError(w, http.StatusBadRequest, "missing url query parameter")
		return
	}
	base, err := normalizeWorkerURL(rawURL)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !s.deregisterMeasurer(base) {
		writeError(w, http.StatusNotFound, "no such measurer")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deregistered": base})
}
