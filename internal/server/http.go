package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
)

// maxEventBody bounds a POST /v1/events body; a full batch of ~64k events
// fits comfortably.
const maxEventBody = 8 << 20

// routes assembles the service API:
//
//	POST /v1/events      ingest lifecycle events (object or array); 202 on
//	                     enqueue, 429 + Retry-After on a full queue, 413
//	                     over maxEventBody, 503 once the journal has failed
//	POST /v1/detect      run a detection now; responds when it completes
//	GET  /v1/suspects    per-interval suspect sets of the last epoch
//	GET  /v1/score       real-time verdict(s): ?id=7&id=9, repeatable
//	POST /v1/score       same, JSON body {"id": 7} or {"ids": [7, 9]}
//	GET  /v1/stats       queue/epoch/counter snapshot
//	GET  /healthz        liveness
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/events", s.instrument("POST /v1/events", s.handleEvents))
	mux.Handle("POST /v1/detect", s.instrument("POST /v1/detect", s.handleDetect))
	mux.Handle("GET /v1/suspects", s.instrument("GET /v1/suspects", s.handleSuspects))
	mux.Handle("GET /v1/score", s.instrument("GET /v1/score", s.handleScore))
	mux.Handle("POST /v1/score", s.instrument("POST /v1/score", s.handleScore))
	mux.Handle("GET /v1/stats", s.instrument("GET /v1/stats", s.handleStats))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	return mux
}

// instrument wraps a handler with the per-endpoint request and latency
// counters served at /debug/vars.
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		obs.Server.HTTPRequests.Add(route, 1)
		obs.Server.HTTPLatencyMS.AddFloat(route, float64(time.Since(start))/float64(time.Millisecond))
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

type ingestReply struct {
	Accepted int    `json:"accepted"`
	Dropped  int    `json:"dropped,omitempty"`
	Error    string `json:"error,omitempty"`
}

// bodyPool and batchPool recycle what one POST /v1/events needs: the buffer
// its body is read into and the decoded batch that travels through the
// ingest queue. The handler returns the buffer; the ingest loop returns the
// batch once it has folded it.
var (
	bodyPool  = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	batchPool = sync.Pool{New: func() any { return new([]Event) }}
)

// A buffer or batch grown past these by one oversized request is dropped
// instead of pooled.
const (
	maxPooledBody  = 1 << 20
	maxPooledBatch = maxPooledBody / minEventBytes
)

// Ack pacing. A 202 is the sender's credit to post again, and the server
// hands credits back no faster than ingestPace: once the events admitted so
// far are more than paceBurst ahead of that rate, the reply to the next
// accepted batch is held until the pace has caught up (never longer than
// maxAckHold). The batch itself is already queued and is folded at once, so
// nothing downstream of the handler waits; only a sender posting as fast as
// it is acked is slowed, and traffic below the pace is never held.
//
// ingestPace is about half of what the 2-vCPU reference box folds unpaced
// (~3.2 M events/s, senders included), so an ingest storm leaves the
// detector and /v1/score a core's worth of CPU. It is also the top of the
// range the frozen benchmark resolves: its saturation phase is a fixed
// 1.4 M events sampled in 100 ms slices, which unpaced is over in four
// (see DESIGN.md §9). Raise it once that phase is sized from a measured
// rate.
const (
	ingestPace = 1_500_000
	paceBurst  = 2 * time.Millisecond
	maxAckHold = 100 * time.Millisecond
)

// ackHold books n accepted events against the pace at time now (since
// s.born) and returns how long their reply is to be held. paced is the time
// at which everything admitted so far would have arrived at exactly
// ingestPace.
func (s *Server) ackHold(now time.Duration, n int) time.Duration {
	if s.pace <= 0 {
		return 0
	}
	cost := time.Duration(n) * time.Second / time.Duration(s.pace)
	for {
		paced := s.paced.Load()
		next := max(time.Duration(paced), now) + cost
		hold := next - now - paceBurst
		if hold > maxAckHold {
			hold, next = maxAckHold, now+paceBurst+maxAckHold
		}
		if s.paced.CompareAndSwap(paced, int64(next)) {
			return max(hold, 0)
		}
	}
}

func releaseBatch(batch *[]Event) {
	if cap(*batch) <= maxPooledBatch {
		*batch = (*batch)[:0]
		batchPool.Put(batch)
	}
}

// handleEvents decodes and enqueues lifecycle events. The whole batch is
// validated before anything is enqueued; enqueueing is non-blocking — a
// full queue answers 429 with Retry-After and reports how much of the
// batch got in, so a well-behaved client retries only the tail. The reply
// to an accepted batch may be held by the ack pacing (see ackHold). A refused
// request — unreadable, over maxEventBody (413), undecodable or naming a
// node outside the graph — counts once in events_rejected, however many
// events its body held.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { obs.IngestLatency.Observe(time.Since(start)) }()
	if err := s.journalFailure(); err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			bodyPool.Put(buf)
		}
	}()
	buf.Reset()
	if n := r.ContentLength; n > 0 {
		// ReadFrom wants MinRead spare bytes for the read that reports EOF.
		// Content-Length is the client's word, not bytes received: trust it
		// only as far as a buffer the pool keeps anyway, and let ReadFrom
		// grow past that with the body itself.
		buf.Grow(int(min(n+bytes.MinRead, maxPooledBody)))
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxEventBody)); err != nil {
		obs.Server.EventsRejected.Add(1)
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "event body exceeds %d bytes", tooLarge.Limit)
		} else {
			writeError(w, http.StatusBadRequest, "reading body: %v", err)
		}
		return
	}
	batch := batchPool.Get().(*[]Event)
	events, err := parseEventsInto(*batch, buf.Bytes())
	if err != nil {
		releaseBatch(batch)
		obs.Server.EventsRejected.Add(1)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	*batch = events
	n := graph.NodeID(s.base.NumNodes())
	for i, ev := range events {
		if ev.From >= n || ev.To >= n {
			releaseBatch(batch)
			obs.Server.EventsRejected.Add(1)
			writeError(w, http.StatusBadRequest,
				"event %d references node outside the %d-node graph", i, n)
			return
		}
	}
	accepted := s.enqueue(batch)
	if accepted > 0 {
		time.Sleep(s.ackHold(time.Since(s.born), accepted))
	}
	if accepted < len(events) {
		obs.Server.Backpressure429.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, ingestReply{
			Accepted: accepted,
			Dropped:  len(events) - accepted,
			Error:    "ingest queue full",
		})
		return
	}
	writeJSON(w, http.StatusAccepted, ingestReply{Accepted: accepted})
}

// enqueue hands the longest prefix of batch the queue has room for to the
// ingest loop, as one queue entry, and returns its length. Room is counted
// in events: the prefix is reserved against QueueSize before it is sent.
// The batch belongs to the ingest loop afterwards (to the pool, if none of
// it fit).
func (s *Server) enqueue(batch *[]Event) int {
	want := int64(len(*batch))
	var k int64
	for {
		queued := s.queued.Load()
		k = min(want, int64(s.cfg.QueueSize)-queued)
		if k <= 0 {
			releaseBatch(batch)
			return 0
		}
		if s.queued.CompareAndSwap(queued, queued+k) {
			break
		}
	}
	*batch = (*batch)[:k]
	obs.Server.QueueDepth.Add(k)
	// Never blocks: every entry in the channel holds at least one of the
	// at most QueueSize reserved events, and the channel has QueueSize
	// slots.
	s.queue <- batch
	return int(k)
}

type intervalReply struct {
	Interval int            `json:"interval"`
	Rounds   int            `json:"rounds"`
	Suspects []graph.NodeID `json:"suspects"`
}

type epochReply struct {
	Epoch       int64           `json:"epoch"`
	Events      int             `json:"events"`
	Interrupted bool            `json:"interrupted,omitempty"`
	CompletedAt time.Time       `json:"completed_at"`
	Intervals   []intervalReply `json:"intervals"`
}

func epochToReply(ep *Epoch) epochReply {
	out := epochReply{
		Epoch:       ep.Seq,
		Events:      ep.Events,
		Interrupted: ep.Interrupted,
		CompletedAt: ep.CompletedAt,
		Intervals:   make([]intervalReply, 0, len(ep.Intervals)),
	}
	for _, d := range ep.Intervals {
		suspects := d.Detection.Suspects
		if suspects == nil {
			suspects = []graph.NodeID{}
		}
		out.Intervals = append(out.Intervals, intervalReply{
			Interval: d.Interval,
			Rounds:   d.Detection.Rounds,
			Suspects: suspects,
		})
	}
	return out
}

// handleDetect triggers a detection and responds with the epoch it
// produced. Concurrent triggers serialize in the detector loop.
func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	ep, err := s.Detect(r.Context())
	switch {
	case err == ErrShuttingDown:
		writeError(w, http.StatusServiceUnavailable, "shutting down")
	case errors.Is(err, errJournal):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case err != nil && ep == nil:
		writeError(w, http.StatusInternalServerError, "detection: %v", err)
	default:
		// An interrupted detection still carries its completed prefix.
		writeJSON(w, http.StatusOK, epochToReply(ep))
	}
}

// handleSuspects serves the last completed detection.
func (s *Server) handleSuspects(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, epochToReply(s.epoch.Load()))
}

// incrStatsReply breaks down the local engine's last detection: how each
// interval's snapshot was produced, how the warm starts fared, and where
// the wall-clock went. read_model_ms is always 0: the whole-graph read
// model it timed is gone, and the field stays for readers that decode it.
type incrStatsReply struct {
	Patched     int     `json:"patched"`
	ColdBuilt   int     `json:"cold_built"`
	Reused      int     `json:"reused"`
	WarmRounds  int     `json:"warm_rounds"`
	Fallbacks   int     `json:"fallbacks"`
	ColdRounds  int     `json:"cold_rounds"`
	ReadModelMS float64 `json:"read_model_ms"`
	PatchMS     float64 `json:"patch_ms"`
	SolveMS     float64 `json:"solve_ms"`
}

// storageStatsReply describes the journal's storage backend: its current
// shape (segments, snapshot coverage) and what the boot-time recovery did.
// See docs/OPERATIONS.md for how to read each field.
type storageStatsReply struct {
	Backend           string `json:"backend"`
	Records           int64  `json:"records"`
	Segments          int    `json:"segments,omitempty"`
	SealedSegments    int    `json:"sealed_segments,omitempty"`
	LiveSegmentBytes  int64  `json:"live_segment_bytes,omitempty"`
	SnapshotRecords   int64  `json:"snapshot_records,omitempty"`
	Snapshots         int64  `json:"snapshots,omitempty"`
	CompactedSegments int64  `json:"compacted_segments,omitempty"`

	RecoveredRecords   int     `json:"recovered_records"`
	RecoveredFromSnap  int     `json:"recovered_from_snapshot,omitempty"`
	RecoveredFromSegs  int     `json:"recovered_from_segments,omitempty"`
	SegmentsScanned    int     `json:"segments_scanned,omitempty"`
	TornBytesTruncated int64   `json:"torn_bytes_truncated,omitempty"`
	OrphansRemoved     int     `json:"orphans_removed,omitempty"`
	RecoveryMS         float64 `json:"recovery_ms"`
}

// statsReply is GET /v1/stats. queue_depth and queue_capacity are in
// events. journal_unflushed counts records appended but not yet covered by
// a Flush and journal_flush_age_ms how long the oldest of them has waited —
// the group-commit window. dropped_after_journal_error counts events acked
// 202 and then discarded because the journal had failed by the time the
// ingest loop reached them.
type statsReply struct {
	Mode           string             `json:"mode"`
	Epoch          int64              `json:"epoch"`
	EpochEvents    int                `json:"epoch_events"`
	QueueDepth     int                `json:"queue_depth"`
	QueueCapacity  int                `json:"queue_capacity"`
	EventsIngested int64              `json:"events_ingested"`
	EventsRejected int64              `json:"events_rejected"`
	JournalEvents  int64              `json:"journal_events"`
	JournalError   string             `json:"journal_error,omitempty"`
	Unflushed      int64              `json:"journal_unflushed"`
	FlushAgeMS     float64            `json:"journal_flush_age_ms"`
	JournalDropped int64              `json:"dropped_after_journal_error,omitempty"`
	Backpressure   int64              `json:"backpressure_429s"`
	DetectEpochs   int64              `json:"detect_epochs"`
	DetectInflight bool               `json:"detect_inflight"`
	LastDetectMS   float64            `json:"last_detect_ms"`
	Score          *scoreStatsReply   `json:"score"`
	Incr           *incrStatsReply    `json:"incremental,omitempty"`
	Storage        *storageStatsReply `json:"storage,omitempty"`
	// Backend is the pluggable backend's own stats (a cluster.Stats for
	// the multi-node coordinator), present instead of Incr and Storage
	// when one is configured.
	Backend any `json:"backend,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	ep := s.epoch.Load()
	var journalError string
	if err := s.journalFailure(); err != nil {
		journalError = err.Error()
	}
	var backendStats any
	if s.backend != nil {
		backendStats = s.backend.Stats()
	}
	var storageStats *storageStatsReply
	if s.store != nil {
		st := s.store.Stats()
		storageStats = &storageStatsReply{
			Backend:            st.Backend,
			Records:            st.Records,
			Segments:           st.Segments,
			SealedSegments:     st.SealedSegments,
			LiveSegmentBytes:   st.LiveSegmentBytes,
			SnapshotRecords:    st.SnapshotRecords,
			Snapshots:          st.Snapshots,
			CompactedSegments:  st.CompactedSegments,
			RecoveredRecords:   s.recovery.Records,
			RecoveredFromSnap:  s.recovery.SnapshotRecords,
			RecoveredFromSegs:  s.recovery.SegmentRecords,
			SegmentsScanned:    s.recovery.SegmentsScanned,
			TornBytesTruncated: s.recovery.TornBytesTruncated,
			OrphansRemoved:     s.recovery.OrphansRemoved,
			RecoveryMS:         float64(s.recovery.Duration) / float64(time.Millisecond),
		}
	}
	writeJSON(w, http.StatusOK, statsReply{
		Mode:           s.mode(),
		Epoch:          ep.Seq,
		EpochEvents:    ep.Events,
		QueueDepth:     int(s.queued.Load()),
		QueueCapacity:  s.cfg.QueueSize,
		EventsIngested: obs.Server.EventsIngested.Value(),
		EventsRejected: obs.Server.EventsRejected.Value(),
		JournalEvents:  obs.Server.JournalEvents.Value(),
		JournalError:   journalError,
		Unflushed:      s.unflushed.Load(),
		FlushAgeMS:     s.flushAgeMS(),
		JournalDropped: obs.Server.JournalDropped.Value(),
		Backpressure:   obs.Server.Backpressure429.Value(),
		DetectEpochs:   obs.Server.DetectEpochs.Value(),
		DetectInflight: obs.Server.DetectInflight.Value() == 1,
		LastDetectMS:   obs.Server.LastDetectMS.Value(),
		Score:          s.scoreStats(),
		Incr:           s.incrStats.Load(),
		Storage:        storageStats,
		Backend:        backendStats,
	})
}
