package server

import "repro/internal/core"

// Backend is the pluggable journal/detection engine behind a Server. The
// stock server journals to a storage.Store and detects with its own
// incr.Engine; a Backend bundles the two into one replaceable unit so a
// differently-shaped engine — the multi-node coordinator in
// internal/cluster — can sit under the same HTTP surface, ingest fold,
// epoch read model, and real-time scorer. The server treats the two alike
// except for who answers Recover, Detect, Mode and Stats.
//
// Call discipline mirrors the server's goroutine model: Recover is called
// once during New (before the loops start); Append and Flush only from
// the ingest goroutine; Detect only from the detector goroutine; Stats
// and Mode from any goroutine; Close once, after both loops have drained.
type Backend interface {
	// Recover replays the backend's durable journal through apply (in
	// batches, in journal order) and readies the backend for Append. It
	// returns the number of records replayed. The server folds the
	// records into its read model and scorer exactly as recovery from its
	// own store would.
	Recover(apply func([]core.TimedRequest) error) (int, error)

	// Append journals one answered request. Durability may be deferred to
	// the next Flush; ordering within a Recover replay only has to be
	// preserved per sender (the detection and read models are
	// order-independent beyond that).
	Append(req core.TimedRequest) error

	// Flush makes every appended record durable — called by the ingest
	// loop's group-commit policy (every commitRecords records or
	// commitDelay, whichever first), before every Detect's cut is taken,
	// and during shutdown drain. The first Append or Flush
	// error stops ingest: no further Append or Flush follows it, and no
	// epoch is published past it.
	Flush() error

	// Detect runs a detection over the first events appended records
	// (recovery included) and returns the per-interval detections
	// ascending by interval. cancel is closed when the server starts
	// shutting down; a backend that refuses to start returns an error
	// that is NOT core.ErrInterrupted, so the server publishes no
	// partial epoch for it.
	Detect(events int, cancel <-chan struct{}) ([]core.IntervalDetection, error)

	// Mode labels the backend in /v1/stats and score.publish traces.
	Mode() string

	// Stats returns a JSON-marshalable point-in-time description, served
	// under "backend" in /v1/stats.
	Stats() any

	// Close releases the backend's resources. Called once at shutdown,
	// after the final Flush.
	Close() error
}
