package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// conn is one logical client connection: requests on it are issued one at
// a time, so the keep-alive transport underneath holds exactly one TCP
// connection to the SUT.
type conn struct {
	base string
	hc   *http.Client
	buf  bytes.Buffer
}

func newConn(base string) *conn {
	return &conn{
		base: base,
		hc: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   120 * time.Second,
		},
	}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do issues one request and returns the status and the body; the body
// aliases the connection's buffer and is valid until the next call.
func (c *conn) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, c.buf.Bytes(), err
}

// postEvents sends one encoded batch. On 429 accepted is the prefix the
// server enqueued; the caller retries the tail.
func (c *conn) postEvents(body []byte) (status, accepted int, err error) {
	status, reply, err := c.do(http.MethodPost, "/v1/events", body)
	if err != nil {
		return 0, 0, err
	}
	if status == http.StatusTooManyRequests {
		var r struct {
			Accepted int `json:"accepted"`
		}
		if err := json.Unmarshal(reply, &r); err != nil {
			return status, 0, fmt.Errorf("decoding 429 reply: %w", err)
		}
		return status, r.Accepted, nil
	}
	return status, 0, nil
}

// scoreReply is the part of a /v1/score verdict the benchmark reads.
type scoreReply struct {
	Verdict         string `json:"verdict"`
	Epoch           int64  `json:"epoch"`
	StalenessEvents int64  `json:"staleness_events"`
}

func (c *conn) score(id int) (scoreReply, error) {
	status, body, err := c.do(http.MethodGet, "/v1/score?id="+strconv.Itoa(id), nil)
	if err != nil {
		return scoreReply{}, err
	}
	if status != http.StatusOK {
		return scoreReply{}, fmt.Errorf("score: status %d", status)
	}
	var r scoreReply
	if err := json.Unmarshal(body, &r); err != nil {
		return scoreReply{}, fmt.Errorf("decoding score reply: %w", err)
	}
	return r, nil
}

// statsReply is the part of /v1/stats the benchmark reads. Counters in it
// (events_ingested, backpressure_429s, the score histogram) are
// process-global: always take deltas from a baseline read.
type statsReply struct {
	Epoch          int64 `json:"epoch"`
	QueueDepth     int   `json:"queue_depth"`
	EventsIngested int64 `json:"events_ingested"`
	Backpressure   int64 `json:"backpressure_429s"`
	DetectInflight bool  `json:"detect_inflight"`
	Score          struct {
		P50US float64 `json:"p50_us"`
		P99US float64 `json:"p99_us"`
	} `json:"score"`
	Incr *struct {
		Patched     int     `json:"patched"`
		ColdBuilt   int     `json:"cold_built"`
		Reused      int     `json:"reused"`
		WarmRounds  int     `json:"warm_rounds"`
		Fallbacks   int     `json:"fallbacks"`
		ColdRounds  int     `json:"cold_rounds"`
		ReadModelMS float64 `json:"read_model_ms"`
		PatchMS     float64 `json:"patch_ms"`
		SolveMS     float64 `json:"solve_ms"`
	} `json:"incremental"`
	Backend *struct {
		Records     int64   `json:"records"`
		Boundary    int64   `json:"boundary"`
		LastMergeMS float64 `json:"last_merge_ms"`
		PerShard    []struct {
			Records   int64   `json:"records"`
			Stepped   int     `json:"stepped"`
			Patched   int     `json:"patched"`
			ColdBuilt int     `json:"cold_built"`
			Reused    int     `json:"reused"`
			PatchMS   float64 `json:"patch_ms"`
			SolveMS   float64 `json:"solve_ms"`
		} `json:"per_shard"`
	} `json:"backend"`
}

func (c *conn) stats() (statsReply, error) {
	status, body, err := c.do(http.MethodGet, "/v1/stats", nil)
	if err != nil {
		return statsReply{}, err
	}
	if status != http.StatusOK {
		return statsReply{}, fmt.Errorf("stats: status %d", status)
	}
	var r statsReply
	if err := json.Unmarshal(body, &r); err != nil {
		return statsReply{}, fmt.Errorf("decoding stats: %w", err)
	}
	return r, nil
}

// detectReply is one published epoch as POST /v1/detect returns it.
type detectReply struct {
	Epoch     int64 `json:"epoch"`
	Events    int   `json:"events"`
	Intervals []struct {
		Interval int     `json:"interval"`
		Rounds   int     `json:"rounds"`
		Suspects []int32 `json:"suspects"`
	} `json:"intervals"`
}

func (c *conn) detect() (detectReply, error) {
	status, body, err := c.do(http.MethodPost, "/v1/detect", nil)
	if err != nil {
		return detectReply{}, err
	}
	if status != http.StatusOK {
		return detectReply{}, fmt.Errorf("detect: status %d: %s", status, bytes.TrimSpace(body))
	}
	var r detectReply
	if err := json.Unmarshal(body, &r); err != nil {
		return detectReply{}, fmt.Errorf("decoding detect reply: %w", err)
	}
	return r, nil
}
