// Package load is the serving stack's load generator core: it drives a
// mixed MiniPy corpus against one /v1/run endpoint at fixed concurrency
// and produces a machine-readable report — latency distribution, outcome
// counts, error-budget verdict, and (when the corpus carries
// expectations) a wrong-answer count against fresh-runner references.
//
// cmd/pyload is the CLI wrapper; the router chaos soak reuses the same
// engine so "what the benchmark measures" and "what the soak asserts"
// are one code path.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/difftest"
	"repro/internal/interp"
	"repro/internal/progstore"
	"repro/internal/runtime"
	"repro/internal/supervise"
)

// Program is one corpus entry. Want* carry the fresh-runner expectation
// when known; an empty WantClass skips verification for the entry.
// Limits, when non-zero, is sent with every request so the serving tier
// enforces the same budgets the reference run was stamped under — and so
// per-job heap reservations stay at the corpus's declared footprint
// instead of the server's (larger) default, which at high concurrency
// can push admission into watermark shedding.
type Program struct {
	Name       string        `json:"name"`
	Src        string        `json:"-"`
	WantClass  string        `json:"wantClass,omitempty"`
	WantStdout string        `json:"-"`
	Limits     interp.Limits `json:"-"`
}

// Config parameterizes one load run.
type Config struct {
	// Target is the base URL of the tier under test (router or a single
	// pyserve). Required.
	Target string
	// Corpus is the program mix; workers cycle through it in seeded
	// order. Required, non-empty.
	Corpus []Program
	// Concurrency is the number of in-flight requests (default 8).
	Concurrency int
	// Requests is the total request count (default 200).
	Requests int
	// Timeout bounds one request (default 30s).
	Timeout time.Duration
	// Seed orders the per-worker corpus walk (default 1).
	Seed uint64
	// AllowedFailureRatio is the error budget: the run passes while
	// unbudgeted failures (transport errors, unexpected 5xx, wrong
	// answers) stay at or below this fraction of requests (default 0).
	// Budgeted failures — sheds and routing rejections that carry
	// Retry-After semantics — are reported separately and do not count
	// against it.
	AllowedFailureRatio float64
	// IdempotencyKeys, when true, stamps every request with a unique
	// idempotency key ("idem-<seed>-<seq>"). This authorizes the router
	// to replay mid-flight failures and arms the exactly-once oracle:
	// the report then counts deduped replies and duplicate executions.
	IdempotencyKeys bool
	// ByRef, when true, registers every corpus program with the target's
	// POST /v1/programs before the drive and sends each request as a
	// run-by-reference (programRef instead of inline src) — the
	// program-store serving path under load.
	ByRef bool
	// Client overrides the HTTP client (tests); nil builds one from
	// Timeout.
	Client *http.Client
}

// Latency summarizes the per-request latency distribution.
type Latency struct {
	P50Ms  float64 `json:"p50Ms"`
	P90Ms  float64 `json:"p90Ms"`
	P99Ms  float64 `json:"p99Ms"`
	MeanMs float64 `json:"meanMs"`
	MaxMs  float64 `json:"maxMs"`
}

// Report is the machine-readable result of one load run.
type Report struct {
	Target      string  `json:"target"`
	Requests    int     `json:"requests"`
	Concurrency int     `json:"concurrency"`
	DurationSec float64 `json:"durationSec"`
	Throughput  float64 `json:"throughputRps"`
	Latency     Latency `json:"latency"`

	// Outcomes counts requests by terminal classification. Served
	// verdicts, checked against the reference: "ok", "python_error"
	// (the program's own error, still a correct serve), and the
	// deterministic limit trips "step_limit", "memory", "recursion",
	// "output-limit", "internal". Failures: "shed", "no_backends",
	// "retry_budget_exhausted" (budgeted); "timeout", "wedged" (the
	// server ran out of wall-clock time), "upstream_error",
	// "http_<code>", "transport_error" (unbudgeted).
	Outcomes map[string]int `json:"outcomes"`

	// Verified counts responses checked against a fresh-runner
	// expectation; WrongAnswers counts the ones that disagreed, and
	// Mismatches keeps the first few of them for debugging.
	Verified     int        `json:"verified"`
	WrongAnswers int        `json:"wrongAnswers"`
	Mismatches   []Mismatch `json:"mismatches,omitempty"`

	// Exactly-once accounting (IdempotencyKeys runs only).
	// DedupedReplies counts 200s served from a backend's dedup cache —
	// replays absorbed instead of re-executed. DuplicateExecutions
	// counts 200s whose executions stamp exceeded 1: the exactly-once
	// guarantee was broken. Must stay zero.
	DedupedReplies      int `json:"dedupedReplies,omitempty"`
	DuplicateExecutions int `json:"duplicateExecutions"`

	// Error budget verdict.
	BudgetedFailures    int     `json:"budgetedFailures"`
	UnbudgetedFailures  int     `json:"unbudgetedFailures"`
	AllowedFailureRatio float64 `json:"allowedFailureRatio"`
	FailureRatio        float64 `json:"failureRatio"`
	WithinBudget        bool    `json:"withinBudget"`
}

// budgeted reports whether outcome is a failure the serving tier is
// allowed to emit under stress: it told the client to back off and the
// job provably did not execute.
func budgeted(outcome string) bool {
	switch outcome {
	case "shed", "no_backends", "retry_budget_exhausted":
		return true
	}
	return false
}

// failure reports whether outcome is a failure at all, as opposed to a
// served verdict the reference can confirm or refute. A wall-clock trip
// is a failure: on a loaded host it says the server ran out of time,
// not that the program has a different answer, so it counts against the
// error budget and never as a wrong answer. The deterministic limit
// trips stay verdicts: a reference that finished under the same budgets
// proves them wrong.
func failure(outcome string) bool {
	switch outcome {
	case "ok", "python_error", "step_limit", "memory", "recursion", "output-limit", "internal":
		return false
	}
	return true
}

// deadlineMsg marks the wall-clock TimeoutError in a result's error
// text; the step-budget TimeoutError shares the "timeout" exit class.
const deadlineMsg = "execution deadline of"

// exitOutcome maps a served result's exit class to its outcome label.
func exitOutcome(res *api.RunResultV1) string {
	switch res.ExitClass {
	case "ok":
		return "ok"
	case "error":
		return "python_error"
	case "timeout":
		if strings.Contains(res.Error, deadlineMsg) {
			return "timeout"
		}
		return "step_limit"
	}
	return res.ExitClass
}

// Mismatch is one wrong answer: the program, the outcome its reference
// predicts, what was served, and the served result's error text and
// digest header (empty when the response carried none).
type Mismatch struct {
	Program string `json:"program"`
	Want    string `json:"want"`
	Got     string `json:"got"`
	Error   string `json:"error,omitempty"`
	Digest  string `json:"digest,omitempty"`
}

// maxMismatches caps Report.Mismatches.
const maxMismatches = 8

// Run drives cfg.Requests requests and aggregates the report.
func Run(cfg Config) (*Report, error) {
	if cfg.Target == "" {
		return nil, fmt.Errorf("load: no target")
	}
	if len(cfg.Corpus) == 0 {
		return nil, fmt.Errorf("load: empty corpus")
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 200
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{
			Timeout: cfg.Timeout,
			Transport: &http.Transport{
				MaxIdleConns:        cfg.Concurrency * 2,
				MaxIdleConnsPerHost: cfg.Concurrency * 2,
			},
		}
	}

	if cfg.ByRef {
		// Register the whole corpus up front: the drive itself then ships
		// only refs. A registration failure is a hard error — every
		// subsequent request would 404.
		for _, p := range cfg.Corpus {
			body, _ := json.Marshal(api.RegisterRequestV1{Name: p.Name, Src: p.Src})
			resp, err := client.Post(cfg.Target+"/v1/programs", "application/json", bytes.NewReader(body))
			if err != nil {
				return nil, fmt.Errorf("load: register %s: %v", p.Name, err)
			}
			rb, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return nil, fmt.Errorf("load: register %s: status %d: %s", p.Name, resp.StatusCode, rb)
			}
		}
	}

	var (
		next             atomic.Int64 // request sequence
		mu               sync.Mutex
		lats             []time.Duration
		outcomes         = make(map[string]int)
		verified, wrong  int
		mismatches       []Mismatch
		deduped, dupExec int
	)

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				seq := next.Add(1) - 1
				if seq >= int64(cfg.Requests) {
					return
				}
				// Seeded corpus walk: deterministic per seq, spread
				// across the corpus so all workers share the mix.
				p := cfg.Corpus[(uint64(seq)*0x9E3779B97F4A7C15+cfg.Seed)%uint64(len(cfg.Corpus))]
				r := oneRequest(client, &cfg, p, seq)

				mu.Lock()
				outcomes[r.outcome]++
				if r.lat > 0 {
					lats = append(lats, r.lat)
				}
				if r.deduped {
					deduped++
				}
				if r.execs > 1 {
					dupExec++
				}
				if p.WantClass != "" && !failure(r.outcome) {
					verified++
					if r.outcome != classOutcome(p.WantClass) ||
						(p.WantClass == "ok" && r.stdout != p.WantStdout) {
						wrong++
						if len(mismatches) < maxMismatches {
							mismatches = append(mismatches, Mismatch{
								Program: p.Name, Want: classOutcome(p.WantClass),
								Got: r.outcome, Error: r.err, Digest: r.digest,
							})
						}
					}
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &Report{
		Target:              cfg.Target,
		Requests:            cfg.Requests,
		Concurrency:         cfg.Concurrency,
		DurationSec:         elapsed.Seconds(),
		Outcomes:            outcomes,
		Verified:            verified,
		WrongAnswers:        wrong,
		Mismatches:          mismatches,
		DedupedReplies:      deduped,
		DuplicateExecutions: dupExec,
		AllowedFailureRatio: cfg.AllowedFailureRatio,
	}
	if elapsed > 0 {
		rep.Throughput = float64(cfg.Requests) / elapsed.Seconds()
	}
	for o, n := range outcomes {
		if !failure(o) {
			continue
		}
		if budgeted(o) {
			rep.BudgetedFailures += n
		} else {
			rep.UnbudgetedFailures += n
		}
	}
	unbudgeted := rep.UnbudgetedFailures + wrong
	rep.FailureRatio = float64(unbudgeted) / float64(cfg.Requests)
	rep.WithinBudget = rep.FailureRatio <= cfg.AllowedFailureRatio
	rep.Latency = summarize(lats)
	return rep, nil
}

// classOutcome maps a reference exit class to the outcome label a
// correct serve of that program produces.
func classOutcome(class string) string {
	if class == "ok" {
		return "ok"
	}
	return "python_error"
}

// reqResult is one request's classification.
type reqResult struct {
	outcome string
	stdout  string
	lat     time.Duration // zero for incomplete exchanges
	deduped bool          // 200 served from a backend dedup cache
	execs   int           // executions stamp (0 when absent)
	err     string        // served error text (200s only)
	digest  string        // result digest header (200s only)
}

// oneRequest performs one POST /v1/run and classifies the result.
// Latency is reported only for completed HTTP exchanges.
func oneRequest(client *http.Client, cfg *Config, p Program, seq int64) reqResult {
	rr := api.RunRequestV1{Name: p.Name, Src: p.Src}
	if cfg.ByRef {
		rr.Src = ""
		rr.ProgramRef = progstore.Ref(p.Src)
	}
	if cfg.IdempotencyKeys {
		// Unique per request: each job may be replayed, never conflated
		// with another. The seed keys the namespace so back-to-back runs
		// against a warm fleet cannot collide in a backend's dedup cache.
		rr.IdempotencyKey = fmt.Sprintf("idem-%d-%d", cfg.Seed, seq)
	}
	if p.Limits != (interp.Limits{}) {
		// Serve under the budgets the reference was stamped with: the
		// class verdict must not depend on the server's defaults. Only
		// the deterministic budgets go on the wire — the wall-clock
		// deadline is a stamping-time backstop, and enforcing it on a
		// loaded server would flip edge programs to timeout depending on
		// contention, not on the program.
		lim := p.Limits
		lim.Deadline = 0
		rr.Limits = &lim
	}
	body, _ := json.Marshal(rr)
	req, err := http.NewRequest(http.MethodPost, cfg.Target+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return reqResult{outcome: "transport_error"}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.HeaderRequestID, fmt.Sprintf("load-%d", seq))

	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return reqResult{outcome: "transport_error"}
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return reqResult{outcome: "transport_error"}
	}
	lat := time.Since(start)

	switch {
	case resp.StatusCode == http.StatusOK:
		var res api.RunResultV1
		if json.Unmarshal(rb, &res) != nil {
			return reqResult{outcome: "transport_error", lat: lat}
		}
		return reqResult{
			outcome: exitOutcome(&res), stdout: res.Stdout, lat: lat,
			deduped: res.Deduped, execs: res.Executions,
			err: res.Error, digest: resp.Header.Get(api.HeaderResultDigest),
		}
	case resp.StatusCode == http.StatusServiceUnavailable:
		var env api.ErrorEnvelope
		if json.Unmarshal(rb, &env) == nil && env.Err.Code != "" {
			return reqResult{outcome: env.Err.Code, lat: lat} // no_backends / retry_budget_exhausted
		}
		return reqResult{outcome: "shed", lat: lat}
	case resp.StatusCode == http.StatusBadGateway:
		return reqResult{outcome: "upstream_error", lat: lat}
	default:
		return reqResult{outcome: fmt.Sprintf("http_%d", resp.StatusCode), lat: lat}
	}
}

// summarize sorts and summarizes a latency sample.
func summarize(lats []time.Duration) Latency {
	if len(lats) == 0 {
		return Latency{}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(q float64) float64 {
		i := int(q * float64(len(lats)-1))
		return float64(lats[i]) / float64(time.Millisecond)
	}
	var sum time.Duration
	for _, l := range lats {
		sum += l
	}
	return Latency{
		P50Ms:  pct(0.50),
		P90Ms:  pct(0.90),
		P99Ms:  pct(0.99),
		MeanMs: float64(sum) / float64(len(lats)) / float64(time.Millisecond),
		MaxMs:  float64(lats[len(lats)-1]) / float64(time.Millisecond),
	}
}

// kernelTemplates are the hand-written compute-heavy corpus members:
// hot loops in the few-millisecond range, so a front tier's per-request
// overhead is measured against realistic work, not against no-ops.
var kernelTemplates = []struct {
	name string
	src  string
}{
	{"arith_sum", `s = 0
i = 0
while i < 120000:
    s = s + i * i - (i & 7)
    i = i + 1
print(s)
`},
	{"attr_norm", `class P:
    def __init__(self, x, y):
        self.x = x
        self.y = y
    def norm(self):
        return self.x * self.x + self.y * self.y

acc = 0
p = P(3, 4)
for i in xrange(60000):
    p.x = i & 255
    acc = acc + p.norm()
print(acc)
`},
	{"dict_churn", `d = {}
for i in xrange(30000):
    d[i & 511] = i
s = 0
for i in xrange(512):
    s = s + d.get(i, 0)
print(s)
print(len(d))
`},
	{"call_fib", `def fib(n):
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)

print(fib(19))
`},
	{"str_build", `parts = []
for i in xrange(4000):
    parts.append("x%d" % (i & 63))
s = "".join(parts)
print(len(s))
`},
}

// MixedCorpus builds n corpus programs: the hand-written compute kernels
// first, then difftest-generated programs for breadth, each stamped with
// its fresh-runner expectation (class and stdout) so load runs can
// verify answers, not just status codes. lim bounds the reference runs;
// generated programs whose reference trips a limit are skipped (they
// would time-depend on server load).
func MixedCorpus(n int, seed uint64, lim interp.Limits) []Program {
	var out []Program
	stamp := func(name, src string) bool {
		ref := supervise.ReferenceRun(name, src, runtime.CPython, lim)
		switch ref.Class {
		case supervise.ClassOK:
			out = append(out, Program{Name: name, Src: src, WantClass: "ok", WantStdout: ref.Output, Limits: lim})
			return true
		case supervise.ClassError:
			out = append(out, Program{Name: name, Src: src, WantClass: "python_error", Limits: lim})
			return true
		}
		return false
	}
	for _, k := range kernelTemplates {
		if len(out) >= n {
			break
		}
		stamp(k.name, k.src)
	}
	for g := uint64(0); len(out) < n && g < uint64(n)*4; g++ {
		src := difftest.Generate(seed + g)
		stamp(fmt.Sprintf("gen_%d", seed+g), src)
	}
	return out
}
