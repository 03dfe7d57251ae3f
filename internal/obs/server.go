package obs

import "expvar"

// ServerCounters is the process-wide counter set of the rejectod online
// service, published under "rejecto.server.*" in expvar alongside the
// Pipeline counters. Every field is an expvar atomic; the server ticks them
// per HTTP request and per ingested event — never per edge — so they are
// free next to the work they count.
type ServerCounters struct {
	// EventsIngested counts lifecycle events applied to server state;
	// EventsRejected counts ingest requests refused at read, decode or
	// validation time — one per request, whatever its body held.
	EventsIngested *expvar.Int
	EventsRejected *expvar.Int
	// JournalDropped counts events that were acked on enqueue and then
	// discarded because the journal had failed before the ingest loop
	// reached them.
	JournalDropped *expvar.Int
	// QueueDepth is a gauge of events sitting in the bounded ingest queue;
	// Backpressure429 counts ingest requests refused with 429 because the
	// queue was full.
	QueueDepth      *expvar.Int
	Backpressure429 *expvar.Int
	// HTTPRequests and HTTPLatencyMS aggregate per-endpoint request counts
	// and cumulative handler latency, keyed by route pattern (e.g.
	// "POST /v1/events").
	HTTPRequests  *expvar.Map
	HTTPLatencyMS *expvar.Map
	// DetectEpochs counts completed detection epochs; LastDetectMS is the
	// wall-clock of the most recent one; DetectInflight is 1 while a
	// detection round is running.
	DetectEpochs   *expvar.Int
	LastDetectMS   *expvar.Float
	DetectInflight *expvar.Int
	// JournalEvents counts answered requests appended to the journal.
	JournalEvents *expvar.Int
	// ScoreRequests counts /v1/score verdicts served, broken down by
	// outcome in ScoreAllows/ScoreThrottles/ScoreDenies.
	ScoreRequests  *expvar.Int
	ScoreAllows    *expvar.Int
	ScoreThrottles *expvar.Int
	ScoreDenies    *expvar.Int
	// ScorePublishes counts epoch views handed to the scorer — one per
	// published detection epoch (including epoch 0 at boot).
	ScorePublishes *expvar.Int
}

// Server is the singleton server counter set; like Pipeline it lives in
// package scope because expvar registration is global and panics on
// duplicates.
var Server = ServerCounters{
	EventsIngested:  expvar.NewInt("rejecto.server.events_ingested"),
	EventsRejected:  expvar.NewInt("rejecto.server.events_rejected"),
	JournalDropped:  expvar.NewInt("rejecto.server.dropped_after_journal_error"),
	QueueDepth:      expvar.NewInt("rejecto.server.queue_depth"),
	Backpressure429: expvar.NewInt("rejecto.server.backpressure_429s"),
	HTTPRequests:    expvar.NewMap("rejecto.server.http_requests"),
	HTTPLatencyMS:   expvar.NewMap("rejecto.server.http_latency_ms"),
	DetectEpochs:    expvar.NewInt("rejecto.server.detect_epochs"),
	LastDetectMS:    expvar.NewFloat("rejecto.server.last_detect_ms"),
	DetectInflight:  expvar.NewInt("rejecto.server.detect_inflight"),
	JournalEvents:   expvar.NewInt("rejecto.server.journal_events"),
	ScoreRequests:   expvar.NewInt("rejecto.server.score_requests"),
	ScoreAllows:     expvar.NewInt("rejecto.server.score_allows"),
	ScoreThrottles:  expvar.NewInt("rejecto.server.score_throttles"),
	ScoreDenies:     expvar.NewInt("rejecto.server.score_denies"),
	ScorePublishes:  expvar.NewInt("rejecto.server.score_publishes"),
}

// ScoreLatency and IngestLatency are the serving-path latency histograms:
// per-verdict handler time on /v1/score and per-batch handler time on
// POST /v1/events. Their p50/p90/p99 are published as
// "rejecto.server.score_latency" and "rejecto.server.ingest_latency" at
// /debug/vars, and the benchmark's score.server_p*_us read the score
// histogram.
// Package scope for the same reason as the counter sets: expvar
// registration is global and panics on duplicates.
var (
	ScoreLatency  = &LatencyHist{}
	IngestLatency = &LatencyHist{}
)

func init() {
	publishHist("rejecto.server.score_latency", ScoreLatency)
	publishHist("rejecto.server.ingest_latency", IngestLatency)
}
