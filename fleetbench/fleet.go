package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/interp"
	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/supervise"
	"repro/internal/telemetry"
)

// replicaCount and replicaSlots shape the fleet: two one-slot replicas,
// one slot per core of the 2-core box the benchmark is sized for.
const (
	replicaCount = 2
	replicaSlots = 1
)

// basePort fixes the fleet's loopback ports (router on basePort,
// replica i on basePort+1+i). The router's hash ring is built over the
// replica URLs, so fixed ports pin every program to the same replica on
// every run; ephemeral ports would reshuffle the pinning, and with it
// the load balance, from run to run.
const basePort = 47310

// fleet is one in-process serving fleet: a router over replicaCount
// pyserve replicas, each on the step-sliced scheduler, all served on
// loopback TCP so HTTP, JSON and digest costs are real.
type fleet struct {
	url      string // router base URL
	router   *route.Router
	scheds   []*supervise.Sched
	servers  []*http.Server
	serveErr chan error
}

// startFleet brings a fleet up. Everything but the slot count takes the
// pyserve and pyroute flag defaults; per-request log lines go to
// io.Discard so they are encoded (as in production) but not printed.
func startFleet(tr *tracer) (*fleet, error) {
	f := &fleet{serveErr: make(chan error, replicaCount+1)}
	var urls []string
	for i := 0; i < replicaCount; i++ {
		reg := telemetry.NewRegistry()
		s := supervise.NewSched(supervise.SchedConfig{
			Slots:        replicaSlots,
			Lanes:        2,
			RecycleAfter: 256,
			Metrics:      supervise.NewMetrics(reg),
			DefaultLimits: interp.Limits{
				MaxSteps:       50_000_000,
				MaxHeapBytes:   256 << 20,
				Deadline:       5 * time.Second,
				MaxOutputBytes: 8 << 20,
			},
		})
		f.scheds = append(f.scheds, s)
		srv := serve.NewWithOptions(tracedBackend{s, tr, i}, reg, serve.Options{
			DrainTimeout: 30 * time.Second,
			LogW:         io.Discard,
			DedupTTL:     5 * time.Minute,
			DedupCap:     4096,
			ProgTTL:      30 * time.Minute,
			ProgCap:      1024,
		})
		u, err := f.listen(basePort+1+i, tr.wrap(layerServe, i, srv.Mux()))
		if err != nil {
			f.stop()
			return nil, err
		}
		urls = append(urls, u)
	}
	reg := telemetry.NewRegistry()
	rt, err := route.New(route.Config{
		Backends: urls,
		Metrics:  route.NewMetrics(reg, urls),
		Logw:     io.Discard,
	})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.router = rt
	if f.url, err = f.listen(basePort, tr.wrap(layerRoute, 0, rt.Mux())); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// listen serves h on a loopback port and returns its base URL.
func (f *fleet) listen(port int, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		return "", fmt.Errorf("listen on port %d: %w", port, err)
	}
	hs := &http.Server{Handler: h}
	f.servers = append(f.servers, hs)
	go func() { f.serveErr <- hs.Serve(ln) }()
	return "http://" + ln.Addr().String(), nil
}

// stop shuts every listener down, waits for their serve loops to return,
// and closes the router and the schedulers.
func (f *fleet) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, hs := range f.servers {
		_ = hs.Shutdown(ctx) // a timeout leaves Serve to return below anyway
	}
	for range f.servers {
		<-f.serveErr
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, s := range f.scheds {
		s.Close()
	}
}

// tracedBackend is the scheduler as handed to serve: it records a span
// around each Submit while tracing is on, and is the bare scheduler
// otherwise.
type tracedBackend struct {
	*supervise.Sched
	tr      *tracer
	replica int
}

func (b tracedBackend) Submit(job *supervise.Job) *supervise.JobResult {
	if !b.tr.on.Load() {
		return b.Sched.Submit(job)
	}
	start := time.Now()
	res := b.Sched.Submit(job)
	b.tr.addSubmit(job.Name, b.replica, start, time.Now(), res)
	return res
}
