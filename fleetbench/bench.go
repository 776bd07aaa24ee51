package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/api"
)

// clients is the generator's connection count: nproc on the 2-core box
// the benchmark is sized for.
const clients = 2

// bench drives one workload against the current fleet and checks every
// reply.
type bench struct {
	tr     *tracer
	f      *fleet
	client *http.Client
	logw   io.Writer // wrong-answer log

	// executed counts replies that report a fresh execution (not a
	// dedup replay, not a shed) on the current fleet.
	executed atomic.Int64
	wrong    atomic.Int64

	// attrRef holds each (program, mode)'s breakdown counts; attrLearn
	// is set while the warm-up records them.
	attrMu    sync.Mutex
	attrRef   map[string][2]uint64
	attrLearn bool

	// corrupt flips one expected output, to prove the oracle reports it.
	corrupt atomic.Bool

	phase atomic.Pointer[phaseStats] // where scrape timings go
}

func newBench(tr *tracer, logw io.Writer) *bench {
	return &bench{
		tr:   tr,
		logw: logw,
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     clients,
				MaxIdleConnsPerHost: clients,
			},
		},
	}
}

// outcome is one request's verdict.
type outcome struct {
	lat    time.Duration // from due time (open loop) or send time
	failed bool          // transport error, non-200, or a limit trip
}

// limitClasses are the exit classes a loaded server can produce for a
// program whose reference run finished: budget trips and watchdog
// verdicts. They count as failed requests, never as wrong answers.
var limitClasses = map[string]bool{
	"timeout": true, "memory": true, "recursion": true, "output-limit": true, "wedged": true,
}

// send performs one request, timed from `from`, and checks the reply.
func (b *bench) send(r *request, from time.Time) outcome {
	root := span{ID: r.id, Layer: layerLoad, Replay: r.replay, Attributed: r.attr != ""}
	o := b.exchange(r, &root)
	end := time.Now()
	o.lat = end.Sub(from)
	if b.tr.on.Load() {
		root.Start, root.End, root.Failed = b.tr.ns(from), b.tr.ns(end), o.failed
		b.tr.add(root)
	}
	return o
}

func (b *bench) exchange(r *request, root *span) outcome {
	hreq, err := http.NewRequest(http.MethodPost, b.f.url+"/v1/run", bytes.NewReader(r.body))
	if err != nil {
		return outcome{failed: true}
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(api.HeaderRequestID, r.id)
	resp, err := b.client.Do(hreq)
	if err != nil {
		return outcome{failed: true}
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return outcome{failed: true}
	}
	root.Attempts, _ = strconv.Atoi(resp.Header.Get("X-Pyroute-Attempts"))
	var res api.RunResultV1
	if err := json.Unmarshal(rb, &res); err != nil {
		b.wrongAnswer(r, rb, "undecodable reply: "+err.Error())
		return outcome{}
	}
	root.Cache, root.Deduped, root.Mode = res.ProgramCache, res.Deduped, res.Mode
	if res.Breakdown != nil {
		root.Instrs = res.Breakdown.TotalInstrs
	}
	if !res.Deduped && res.ExitClass != "shed" {
		b.executed.Add(1)
	}
	want := r.want
	if b.corrupt.CompareAndSwap(true, false) {
		want.stdout += "corrupted\n"
	}
	switch {
	case res.ExitClass == want.class && res.Stdout == want.stdout:
		if r.attr != "" {
			b.checkBreakdown(r, rb, &res)
		}
		return outcome{}
	case limitClasses[res.ExitClass]:
		return outcome{failed: true}
	}
	b.wrongAnswer(r, rb, fmt.Sprintf("want class %q stdout %q, got class %q stdout %q",
		want.class, want.stdout, res.ExitClass, res.Stdout))
	return outcome{}
}

// checkBreakdown requires a breakdown request's instruction and cycle
// totals to repeat exactly once the warm-up has recorded them.
func (b *bench) checkBreakdown(r *request, rb []byte, res *api.RunResultV1) {
	if res.Breakdown == nil {
		b.wrongAnswer(r, rb, "breakdown requested but missing")
		return
	}
	got := [2]uint64{res.Breakdown.TotalInstrs, res.Breakdown.TotalCycles}
	b.attrMu.Lock()
	want, ok := b.attrRef[r.attr]
	if b.attrLearn && !ok {
		b.attrRef[r.attr] = got
		want, ok = got, true
	}
	b.attrMu.Unlock()
	if ok && got != want {
		b.wrongAnswer(r, rb, fmt.Sprintf("%s: breakdown totals %v, recorded %v", r.attr, got, want))
	}
}

// wrongAnswer logs a wrong reply with its request id and result digest
// (the router forwards the replica's body unchanged, so its hash is the
// X-Pyserve-Digest the replica stamped).
func (b *bench) wrongAnswer(r *request, rb []byte, why string) {
	b.wrong.Add(1)
	fmt.Fprintf(b.logw, "wrong answer: request %s digest %s: %s\n", r.id, api.Digest(rb), why)
}

// phaseStats is one timed phase's measurements.
type phaseStats struct {
	mu        sync.Mutex
	start     time.Time
	end       time.Time
	cpu       time.Duration
	lats      []float64 // ms, completed requests
	attempted int
	failed    int
	lateness  []float64 // ms, open loop only
	scrapes   []float64 // ms
	backlog   int       // open loop: requests outstanding when dispatch ended
}

func (p *phaseStats) record(o outcome) {
	p.mu.Lock()
	p.attempted++
	if o.failed {
		p.failed++
	} else {
		p.lats = append(p.lats, ms(o.lat))
	}
	p.mu.Unlock()
}

func (p *phaseStats) completed() int { return p.attempted - p.failed }

func (p *phaseStats) rps() float64 {
	return float64(p.completed()) / p.end.Sub(p.start).Seconds()
}

func (p *phaseStats) cpuPerReq() float64 {
	return ms(p.cpu) / float64(max(p.completed(), 1))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// processCPU is the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func (b *bench) begin() *phaseStats {
	p := &phaseStats{start: time.Now(), cpu: processCPU()}
	b.phase.Store(p)
	return p
}

func (b *bench) finish(p *phaseStats) {
	p.end = time.Now()
	p.cpu = processCPU() - p.cpu
}

// closedLoop runs `clients` clients back to back for d, then to the end
// of the generator's current pass: each sends its next request when the
// previous reply arrives.
func (b *bench) closedLoop(g generator, d time.Duration) *phaseStats {
	p := b.begin()
	deadline := p.start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				r := g.next(!time.Now().Before(deadline))
				if r == nil {
					return
				}
				p.record(b.send(r, time.Now()))
			}
		}()
	}
	wg.Wait()
	b.finish(p)
	return p
}

// openLoop offers Poisson arrivals at rate for d, through `clients`
// connections. Each request is timed from its due time, so a stall
// counts against every request queued behind it; lateness is how far
// behind schedule the dispatcher handed a request over.
func (b *bench) openLoop(g generator, rate float64, d time.Duration, rng *rand.Rand) *phaseStats {
	type item struct {
		r   *request
		due time.Time
	}
	gap := func() time.Duration { return time.Duration(rng.ExpFloat64() / rate * float64(time.Second)) }
	var dues []time.Duration
	for t := gap(); t < d; t += gap() {
		dues = append(dues, t)
	}
	// Sized to the whole schedule, so the dispatcher never blocks and the
	// backlog stays visible as latency rather than as lateness.
	queue := make(chan item, len(dues))
	var outstanding atomic.Int64
	p := b.begin()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range queue {
				p.record(b.send(it.r, it.due))
				outstanding.Add(-1)
			}
		}()
	}
	for _, off := range dues {
		r := g.next(false)
		due := p.start.Add(off)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		late := ms(time.Since(due))
		outstanding.Add(1)
		queue <- item{r, due}
		p.mu.Lock()
		p.lateness = append(p.lateness, late)
		p.mu.Unlock()
	}
	p.backlog = int(outstanding.Load())
	close(queue)
	wg.Wait()
	b.finish(p)
	return p
}

// scrape polls the router's /v1/metrics once a second, as a Prometheus
// server would, timing each scrape into the current phase, until stop
// is closed.
func (b *bench) scrape(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	c := &http.Client{Timeout: 10 * time.Second}
	defer c.CloseIdleConnections()
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		start := time.Now()
		if _, err := fleetExecutions(c, b.f.url); err != nil {
			continue
		}
		if p := b.phase.Load(); p != nil {
			p.mu.Lock()
			p.scrapes = append(p.scrapes, ms(time.Since(start)))
			p.mu.Unlock()
		}
	}
}

// fleetExecutions scrapes the router's aggregated /v1/metrics and sums
// minipy_jobs_total over every class but shed: the jobs the fleet ran.
func fleetExecutions(c *http.Client, url string) (int64, error) {
	resp, err := c.Get(url + "/v1/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("metrics: status %d", resp.StatusCode)
	}
	var total float64
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "minipy_jobs_total{") || strings.Contains(line, `class="shed"`) {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			return 0, fmt.Errorf("metrics: %q: %w", line, err)
		}
		total += v
	}
	return int64(total), sc.Err()
}
