package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/storage"
)

// The system under test is the configuration the repository recommends,
// built in-process and reached only through a real HTTP listener. Every
// call into server / storage / cluster constructors lives in this file, so
// API drift in those packages has one place to land.
const (
	sutQueueSize     = 65536
	sutSnapshotEvery = 50000
	sutShards        = 4
	sutWorkers       = 2
)

// detectorOptions is the recommended detector: multilevel sweep over the
// default k-grid, stopped by the acceptance threshold.
func detectorOptions() core.DetectorOptions {
	return core.DetectorOptions{
		Cut:                 core.CutOptions{Multilevel: true, RandSeed: 42},
		AcceptanceThreshold: 0.5,
	}
}

// sutConfig is what a workload varies about the SUT: where it keeps its
// journal, whether the cluster backend replaces the single-node engine,
// and — on traced runs only — the benchmark's tracer and timing
// decorators.
type sutConfig struct {
	base    *graph.Graph
	dir     string
	sharded bool

	tracer      obs.Tracer
	wrapStore   func(storage.Store) storage.Store
	wrapBackend func(server.Backend) server.Backend
}

// sut is one live rejectod: the server and the listener in front of it.
type sut struct {
	srv      *server.Server
	httpSrv  *http.Server
	addr     string
	serveErr chan error
}

// openSUT opens (or recovers) the store under cfg.dir, boots the server on
// it and starts serving on a loopback port.
func openSUT(cfg sutConfig) (*sut, error) {
	sc := server.Config{
		Base:      cfg.base,
		Detector:  detectorOptions(),
		QueueSize: sutQueueSize,
		Tracer:    cfg.tracer,
	}
	if cfg.sharded {
		coord, err := cluster.New(cluster.Config{
			Base:     cfg.base,
			Detector: detectorOptions(),
			Shards:   sutShards,
			Workers:  sutWorkers,
			Dir:      cfg.dir,
			Tracer:   cfg.tracer,
		})
		if err != nil {
			return nil, fmt.Errorf("building cluster: %w", err)
		}
		sc.Backend = coord
		if cfg.wrapBackend != nil {
			sc.Backend = cfg.wrapBackend(coord)
		}
	} else {
		st, err := storage.Open(storage.Options{Dir: cfg.dir, Tracer: cfg.tracer})
		if err != nil {
			return nil, fmt.Errorf("opening store: %w", err)
		}
		sc.Store = st
		if cfg.wrapStore != nil {
			sc.Store = cfg.wrapStore(st)
		}
		sc.Incremental = true
		sc.SnapshotEvery = sutSnapshotEvery
	}
	srv, err := server.New(sc)
	if err != nil {
		return nil, fmt.Errorf("booting server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_, _ = srv.Shutdown(context.Background()) // the listen error is the one to report
		return nil, err
	}
	s := &sut{
		srv:      srv,
		httpSrv:  &http.Server{Handler: srv.Handler()},
		addr:     "http://" + ln.Addr().String(),
		serveErr: make(chan error, 1),
	}
	go func() { s.serveErr <- s.httpSrv.Serve(ln) }()
	return s, nil
}

// close drains the SUT the way rejectod does on SIGTERM: listener first,
// then the server (detector, ingest queue, journal flush, store close).
func (s *sut) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	herr := s.httpSrv.Shutdown(ctx)
	if err := <-s.serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		herr = errors.Join(herr, err)
	}
	_, serr := s.srv.Shutdown(ctx)
	return errors.Join(herr, serr)
}

// readJournal reopens the store directory and returns the logical journal
// a restarted server would recover — in arrival order for the single-node
// store, in per-sender order for the cluster backend (the Backend
// contract).
func readJournal(cfg sutConfig) ([]core.TimedRequest, error) {
	var out []core.TimedRequest
	collect := func(reqs []core.TimedRequest) error {
		out = append(out, reqs...)
		return nil
	}
	if cfg.sharded {
		coord, err := cluster.New(cluster.Config{
			Base: cfg.base, Detector: detectorOptions(),
			Shards: sutShards, Workers: sutWorkers, Dir: cfg.dir,
		})
		if err != nil {
			return nil, err
		}
		if _, err := coord.Recover(collect); err != nil {
			return nil, errors.Join(err, coord.Close())
		}
		return out, coord.Close()
	}
	st, err := storage.Open(storage.Options{Dir: cfg.dir})
	if err != nil {
		return nil, err
	}
	if _, err := st.Recover(collect); err != nil {
		return nil, errors.Join(err, st.Close())
	}
	return out, st.Close()
}

// replayDetect is the batch oracle for the sharded workload's final
// epoch: the same events folded and detected in one cold pass.
func replayDetect(base *graph.Graph, events []server.Event) ([]core.IntervalDetection, error) {
	return server.Replay(base, events, detectorOptions())
}
