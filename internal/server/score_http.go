package server

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/score"
)

const (
	// maxScoreBatch bounds the IDs one /v1/score call may ask about;
	// anything larger should be a sweep of many requests, not one.
	maxScoreBatch = 1024
	// maxScoreBody bounds a POST /v1/score body — a full batch of IDs is a
	// few KB, so 64 KiB leaves generous framing headroom.
	maxScoreBody = 64 << 10
)

// scoreWire is the POST /v1/score decode target: int64 fields so
// out-of-range IDs fail validation instead of truncating (the eventWire
// pattern). Exactly one of ID and IDs must be set.
type scoreWire struct {
	ID  *int64  `json:"id"`
	IDs []int64 `json:"ids"`
}

// ParseScoreRequest extracts the account IDs a /v1/score call asks about.
// GET supplies a repeatable id query parameter (?id=7&id=9); POST supplies
// a JSON body, either {"id": 7} or {"ids": [7, 9]}. At most one of
// rawQuery and body may be non-empty. Duplicate IDs are kept in order —
// the reply echoes one result per requested ID. Structural validation
// only: IDs are bounds-checked against the graph by the caller.
func ParseScoreRequest(rawQuery string, body []byte) ([]graph.NodeID, error) {
	if rawQuery != "" && len(body) > 0 {
		return nil, fmt.Errorf("server: score request has both query and body")
	}
	if rawQuery != "" {
		vals, err := url.ParseQuery(rawQuery)
		if err != nil {
			return nil, fmt.Errorf("server: score query: %w", err)
		}
		for k := range vals {
			if k != "id" {
				return nil, fmt.Errorf("server: score query: unknown parameter %q", k)
			}
		}
		raw := vals["id"]
		if len(raw) == 0 {
			return nil, fmt.Errorf("server: score query needs at least one id parameter")
		}
		if len(raw) > maxScoreBatch {
			return nil, fmt.Errorf("server: score query asks about %d IDs, max %d", len(raw), maxScoreBatch)
		}
		ids := make([]graph.NodeID, 0, len(raw))
		for _, s := range raw {
			id, err := parseScoreID(s)
			if err != nil {
				return nil, err
			}
			ids = append(ids, id)
		}
		return ids, nil
	}

	trimmed := bytes.TrimLeft(body, " \t\r\n")
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("server: empty score request")
	}
	var w scoreWire
	if err := strictUnmarshal(trimmed, &w); err != nil {
		return nil, fmt.Errorf("server: decoding score request: %w", err)
	}
	switch {
	case w.ID != nil && w.IDs != nil:
		return nil, fmt.Errorf(`server: score request has both "id" and "ids"`)
	case w.ID != nil:
		id, err := checkScoreID(*w.ID)
		if err != nil {
			return nil, err
		}
		return []graph.NodeID{id}, nil
	case w.IDs != nil:
		if len(w.IDs) == 0 {
			return nil, fmt.Errorf(`server: score request "ids" is empty`)
		}
		if len(w.IDs) > maxScoreBatch {
			return nil, fmt.Errorf("server: score request asks about %d IDs, max %d", len(w.IDs), maxScoreBatch)
		}
		ids := make([]graph.NodeID, 0, len(w.IDs))
		for _, raw := range w.IDs {
			id, err := checkScoreID(raw)
			if err != nil {
				return nil, err
			}
			ids = append(ids, id)
		}
		return ids, nil
	default:
		return nil, fmt.Errorf(`server: score request needs "id" or "ids"`)
	}
}

func parseScoreID(s string) (graph.NodeID, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("server: bad score ID %q", s)
	}
	return checkScoreID(v)
}

func checkScoreID(v int64) (graph.NodeID, error) {
	if v < 0 || v > math.MaxInt32 {
		return 0, fmt.Errorf("server: score ID %d out of range", v)
	}
	return graph.NodeID(v), nil
}

// scoreReply is one verdict on the wire. Reasons is omitted on allow.
type scoreReply struct {
	ID              graph.NodeID `json:"id"`
	Score           float64      `json:"score"`
	Verdict         string       `json:"verdict"`
	Reasons         []string     `json:"reasons,omitempty"`
	Epoch           int64        `json:"epoch"`
	StalenessEvents int64        `json:"staleness_events"`
}

func toScoreReply(res score.Result) scoreReply {
	return scoreReply{
		ID:              res.ID,
		Score:           res.Score,
		Verdict:         res.Verdict.String(),
		Reasons:         res.Reasons.Strings(),
		Epoch:           res.Epoch,
		StalenessEvents: res.StalenessEvents,
	}
}

// handleScore serves real-time verdicts. A single-ID request answers a
// bare verdict object, a multi-ID request an array in request order. Each
// verdict's latency (not the batch's) feeds the score histogram, so the
// p99 at /debug/vars measures the per-verdict serving cost (the
// benchmark's score.server_p99_us).
func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	var body []byte
	if r.Method == http.MethodPost {
		var err error
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxScoreBody))
		if err != nil {
			writeError(w, http.StatusBadRequest, "reading body: %v", err)
			return
		}
	}
	ids, err := ParseScoreRequest(r.URL.RawQuery, body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	single := len(ids) == 1
	replies := make([]scoreReply, 0, len(ids))
	for _, id := range ids {
		start := time.Now()
		res, err := s.Score(id)
		if err != nil {
			writeError(w, http.StatusNotFound, "%v", err)
			return
		}
		obs.ScoreLatency.Observe(time.Since(start))
		replies = append(replies, toScoreReply(res))
	}
	if single {
		writeJSON(w, http.StatusOK, replies[0])
		return
	}
	writeJSON(w, http.StatusOK, replies)
}

// scoreStatsReply summarizes the verdict path for /v1/stats: outcome
// counters since boot, the published epoch view, its staleness against the
// scorer's logical clock, and the serving-latency headline quantiles.
type scoreStatsReply struct {
	Requests        int64   `json:"requests"`
	Allows          int64   `json:"allows"`
	Throttles       int64   `json:"throttles"`
	Denies          int64   `json:"denies"`
	Publishes       int64   `json:"publishes"`
	Epoch           int64   `json:"epoch"`
	EpochSuspects   int     `json:"epoch_suspects"`
	StalenessEvents int64   `json:"staleness_events"`
	P50US           float64 `json:"p50_us"`
	P99US           float64 `json:"p99_us"`
}

func (s *Server) scoreStats() *scoreStatsReply {
	view := s.scorer.Epoch()
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	staleness := int64(s.scorer.Clock()) - view.Events
	if staleness < 0 {
		staleness = 0
	}
	return &scoreStatsReply{
		Requests:        obs.Server.ScoreRequests.Value(),
		Allows:          obs.Server.ScoreAllows.Value(),
		Throttles:       obs.Server.ScoreThrottles.Value(),
		Denies:          obs.Server.ScoreDenies.Value(),
		Publishes:       obs.Server.ScorePublishes.Value(),
		Epoch:           view.Seq,
		EpochSuspects:   view.NumSuspects(),
		StalenessEvents: staleness,
		P50US:           us(obs.ScoreLatency.Quantile(0.50)),
		P99US:           us(obs.ScoreLatency.Quantile(0.99)),
	}
}
