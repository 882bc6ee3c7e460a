package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"mindmappings/internal/atlas"
	"mindmappings/internal/infer"
	"mindmappings/internal/modelstore"
	"mindmappings/internal/resilience"
	"mindmappings/internal/service"
	"mindmappings/internal/trainer"
)

// server is an in-process `mindmappings serve` with default flags and
// -quiet: NumCPU search workers, a 64-job queue, the default eval cache,
// batching at the default window and batch size, the atlas and journal
// under the models directory, and a training pool of two.
type server struct {
	url      string
	registry *service.ModelRegistry
	jobs     *service.JobManager
	pipeline *trainer.Pipeline
	http     *http.Server
	served   chan error
}

// startServer wires the server the way cmdServe does and listens on a
// loopback port. dir becomes its -models directory.
func startServer(dir string, atlasReadonly bool) (*server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	store, err := modelstore.Open(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	registry := service.NewModelRegistry(dir, service.DefaultRegistryCapacity)
	cache := service.NewEvalCache(0)
	jobs := service.NewJobManager(registry, cache, 0, 64)
	jobs.SetBatching(infer.Config{Window: infer.DefaultWindow, MaxBatch: infer.DefaultMaxBatch})
	mappings, err := atlas.Open(filepath.Join(dir, "atlas"))
	if err != nil {
		return nil, err
	}
	jobs.EnableAtlas(mappings, atlasReadonly)
	journal, err := resilience.OpenJournal(filepath.Join(dir, "jobs"))
	if err != nil {
		return nil, err
	}
	if _, err := jobs.EnableJournal(journal); err != nil {
		return nil, err
	}
	pipeline := trainer.New(store, 2, 16)
	api := service.NewServer(jobs, registry, cache).WithTraining(store, pipeline)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		url:      "http://" + ln.Addr().String(),
		registry: registry,
		jobs:     jobs,
		pipeline: pipeline,
		http:     &http.Server{Handler: api.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served:   make(chan error, 1),
	}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the listener and both pools down and waits for them.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	httpErr := s.http.Shutdown(ctx)
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		httpErr = errors.Join(httpErr, err)
	}
	jobErr := s.jobs.Shutdown(ctx)
	trainErr := s.pipeline.Shutdown(ctx)
	if err := errors.Join(httpErr, jobErr, trainErr); err != nil {
		return fmt.Errorf("stopping server: %w", err)
	}
	return nil
}
