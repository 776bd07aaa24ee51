package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/supervise"
)

// Span layers, outermost first. A request's spans share its
// X-Request-Id; each layer's self time is its span minus its children.
const (
	layerLoad   = "load"   // the generator's request: due time to reply read
	layerRoute  = "route"  // the router's mux
	layerServe  = "serve"  // a replica's mux (one per attempt)
	layerSubmit = "submit" // the backend call serve makes (Sched.Submit)
)

// span is one recorded layer boundary. Submit spans carry the job
// result's Queued, RunTime and lifecycle-derived parked time as their
// recorded children; load spans carry what the reply said.
type span struct {
	ID      string `json:"id"`
	Layer   string `json:"layer"`
	Replica int    `json:"replica"`
	Start   int64  `json:"startNs"` // since the tracer's epoch
	End     int64  `json:"endNs"`

	QueuedNs    int64  `json:"queuedNs,omitempty"`
	RunNs       int64  `json:"runNs,omitempty"`
	ParkedNs    int64  `json:"parkedNs,omitempty"`
	Class       string `json:"class,omitempty"`
	Preemptions int    `json:"preemptions,omitempty"`
	Bytecodes   uint64 `json:"bytecodes,omitempty"`
	Allocs      uint64 `json:"allocs,omitempty"`
	MinorGCs    uint64 `json:"minorGCs,omitempty"`
	MajorGCs    uint64 `json:"majorGCs,omitempty"`
	ICHits      uint64 `json:"icHits,omitempty"`
	ICMisses    uint64 `json:"icMisses,omitempty"`

	Attempts   int    `json:"attempts,omitempty"`
	Cache      string `json:"programCache,omitempty"`
	Deduped    bool   `json:"deduped,omitempty"`
	Replay     bool   `json:"replay,omitempty"`
	Mode       string `json:"mode,omitempty"`
	Attributed bool   `json:"attributed,omitempty"`
	Instrs     uint64 `json:"instructions,omitempty"`
	Failed     bool   `json:"failed,omitempty"`
}

// tracer keeps spans in memory while on is set; they are written out
// when the run ends.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wrap records a span around h for each /v1/run request while tracing
// is on. The id is the request's X-Request-Id with the router's
// per-attempt suffix (.rN, .hN) stripped.
func (t *tracer) wrap(layer string, replica int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || r.URL.Path != "/v1/run" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.add(span{
			ID: baseID(r.Header.Get(api.HeaderRequestID)), Layer: layer, Replica: replica,
			Start: t.ns(start), End: t.ns(time.Now()),
		})
	})
}

// baseID strips a router attempt suffix: "q7.r2" and "q7.h2" become "q7".
func baseID(id string) string {
	if i := strings.LastIndexByte(id, '.'); i > 0 && i+1 < len(id) &&
		(id[i+1] == 'r' || id[i+1] == 'h') {
		return id[:i]
	}
	return id
}

// addSubmit records a Submit span. The job's name is "<request id>.py",
// which is how the span joins its request: serve hands Submit only the
// job. Parked time is the part of the job's life after its first RUNNING
// event that was not spent running (PREEMPTED and re-SCHEDULED dwell);
// it is exact even when the lifecycle trace is capped.
func (t *tracer) addSubmit(name string, replica int, start, end time.Time, res *supervise.JobResult) {
	s := span{
		ID: strings.TrimSuffix(name, ".py"), Layer: layerSubmit, Replica: replica,
		Start: t.ns(start), End: t.ns(end),
		QueuedNs: res.Queued.Nanoseconds(), RunNs: res.RunTime.Nanoseconds(),
		Class: res.Class.String(), Preemptions: res.Preemptions,
		Bytecodes: res.Bytecodes, Allocs: res.Allocs,
		MinorGCs: res.MinorGCs, MajorGCs: res.MajorGCs,
		ICHits: res.IC.Hits(), ICMisses: res.IC.Misses(),
	}
	if lc := res.Lifecycle; len(lc) > 0 && lc[len(lc)-1].State == supervise.LifeFinished {
		for _, ev := range lc {
			if ev.State == supervise.LifeRunning {
				s.ParkedNs = lc[len(lc)-1].At.Sub(ev.At).Nanoseconds() - s.RunNs
				break
			}
		}
	}
	t.add(s)
}

// take returns the spans recorded so far and clears the buffer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// split is one request's time, layer by layer. The fields partition the
// load span: each is a span's self time, and unattributed is what is
// left of Submit after its recorded children.
type split struct {
	load, route, serve               float64 // self times, ms
	queue, parked, run, unattributed float64 // inside Submit, ms
	root                             *span
	submits                          []*span
}

// splitRequests joins spans on request id and splits every successful
// request's wall time across layers. It returns an error when a span
// does not nest inside its parent, since the self times would then not
// partition the request.
func splitRequests(spans []span) ([]split, error) {
	type joined struct {
		root, route *span
		serves      []*span
		submits     []*span
	}
	byID := make(map[string]*joined)
	get := func(id string) *joined {
		j := byID[id]
		if j == nil {
			j = &joined{}
			byID[id] = j
		}
		return j
	}
	for i := range spans {
		s := &spans[i]
		j := get(s.ID)
		switch s.Layer {
		case layerLoad:
			j.root = s
		case layerRoute:
			j.route = s
		case layerServe:
			j.serves = append(j.serves, s)
		case layerSubmit:
			j.submits = append(j.submits, s)
		}
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	within := func(c, p *span) bool { return c.Start >= p.Start && c.End <= p.End }
	var out []split
	for id, j := range byID {
		if j.root == nil || j.root.Failed {
			continue
		}
		if j.route == nil || len(j.serves) == 0 {
			return nil, fmt.Errorf("request %s: missing router or replica span", id)
		}
		if !within(j.route, j.root) {
			return nil, fmt.Errorf("request %s: router span outside the request", id)
		}
		var serveNs, submitNs, queued, parked, run int64
		for _, s := range j.serves {
			if !within(s, j.route) {
				return nil, fmt.Errorf("request %s: replica span outside the router span", id)
			}
			serveNs += s.End - s.Start
		}
		for _, s := range j.submits {
			nested := false
			for _, p := range j.serves {
				nested = nested || within(s, p)
			}
			if !nested || s.QueuedNs+s.RunNs+s.ParkedNs > s.End-s.Start {
				return nil, fmt.Errorf("request %s: Submit span does not nest", id)
			}
			submitNs += s.End - s.Start
			queued += s.QueuedNs
			parked += s.ParkedNs
			run += s.RunNs
		}
		rootNs, routeNs := j.root.End-j.root.Start, j.route.End-j.route.Start
		out = append(out, split{
			load:         ms(rootNs - routeNs),
			route:        ms(routeNs - serveNs),
			serve:        ms(serveNs - submitNs),
			queue:        ms(queued),
			parked:       ms(parked),
			run:          ms(run),
			unattributed: ms(submitNs - queued - parked - run),
			root:         j.root,
			submits:      j.submits,
		})
	}
	return out, nil
}
