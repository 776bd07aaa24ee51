package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/interp"
	"repro/internal/supervise"
	"repro/internal/telemetry"
)

// dedupServer is metricsServer with the *Server exposed (for DedupStats)
// and dedup options under test control.
func dedupServer(t *testing.T, opts Options) (*httptest.Server, *Server, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	sched := supervise.NewSched(supervise.SchedConfig{
		Slots:   2,
		Metrics: supervise.NewMetrics(reg),
		DefaultLimits: interp.Limits{
			MaxSteps:       10_000_000,
			MaxHeapBytes:   128 << 20,
			Deadline:       30 * time.Second,
			MaxOutputBytes: 1 << 20,
		},
	})
	opts.DrainTimeout = 10 * time.Second
	opts.LogW = io.Discard
	srv := NewWithOptions(sched, reg, opts)
	ts := httptest.NewServer(srv.Mux())
	t.Cleanup(func() {
		ts.Close()
		sched.Close()
	})
	return ts, srv, reg
}

// postV1 posts req to /v1/run with optional extra headers and returns
// the raw response plus its decoded body bytes.
func postV1(t *testing.T, ts *httptest.Server, req runRequest, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		hr.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func decodeResult(t *testing.T, raw []byte) runResponse {
	t.Helper()
	var out runResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decode /v1/run response: %v\n%s", err, raw)
	}
	return out
}

// TestDedupReplayAbsorbed: a replay of an executed key returns the
// recorded result — same stdout, Deduped set, no second execution.
func TestDedupReplayAbsorbed(t *testing.T) {
	ts, srv, reg := dedupServer(t, Options{})
	req := runRequest{Src: `print("once")`, IdempotencyKey: "key-1"}

	resp1, raw1 := postV1(t, ts, req, nil)
	out1 := decodeResult(t, raw1)
	if resp1.StatusCode != 200 || out1.Stdout != "once\n" {
		t.Fatalf("first run: status %d stdout %q (err %s)", resp1.StatusCode, out1.Stdout, out1.Error)
	}
	if out1.Executions != 1 || out1.Deduped {
		t.Fatalf("first run: Executions=%d Deduped=%v, want 1/false", out1.Executions, out1.Deduped)
	}

	resp2, raw2 := postV1(t, ts, req, map[string]string{api.HeaderRequestID: "replay-77"})
	out2 := decodeResult(t, raw2)
	if resp2.StatusCode != 200 || out2.Stdout != "once\n" {
		t.Fatalf("replay: status %d stdout %q", resp2.StatusCode, out2.Stdout)
	}
	if !out2.Deduped || out2.Executions != 1 {
		t.Fatalf("replay: Deduped=%v Executions=%d, want true/1", out2.Deduped, out2.Executions)
	}
	if out2.RequestID != "replay-77" {
		t.Fatalf("replay RequestID = %q, want the replay's own id", out2.RequestID)
	}

	st := srv.DedupStats()
	if st.Hits != 1 || st.Recorded != 1 || st.MaxExecutions != 1 {
		t.Fatalf("stats = %+v, want Hits=1 Recorded=1 MaxExecutions=1", st)
	}
	var sb strings.Builder
	_ = reg.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "pyserve_dedup_hits_total 1") {
		t.Errorf("exposition missing pyserve_dedup_hits_total 1")
	}
}

// TestDedupDistinctKeysExecute: different keys never collide.
func TestDedupDistinctKeysExecute(t *testing.T) {
	ts, srv, _ := dedupServer(t, Options{})
	for _, k := range []string{"a", "b", "c"} {
		_, raw := postV1(t, ts, runRequest{Src: `print("` + k + `")`, IdempotencyKey: k}, nil)
		out := decodeResult(t, raw)
		if out.Stdout != k+"\n" || out.Deduped {
			t.Fatalf("key %s: stdout %q deduped %v", k, out.Stdout, out.Deduped)
		}
	}
	if st := srv.DedupStats(); st.Hits != 0 || st.Recorded != 3 {
		t.Fatalf("stats = %+v, want Hits=0 Recorded=3", st)
	}
}

// TestDedupKeyTooLong: oversized keys are rejected before execution.
func TestDedupKeyTooLong(t *testing.T) {
	ts, _, _ := dedupServer(t, Options{})
	resp, raw := postV1(t, ts, runRequest{
		Src:            `print(1)`,
		IdempotencyKey: strings.Repeat("k", api.MaxIdempotencyKey+1),
	}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var env api.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if env.Err.Code != api.CodeBadIdempotencyKey {
		t.Fatalf("code = %q, want %q", env.Err.Code, api.CodeBadIdempotencyKey)
	}
}

// TestContentDigestVerified: a request whose body does not match its
// X-Content-Digest is rejected 422/integrity_violation without
// executing; a matching digest passes.
func TestContentDigestVerified(t *testing.T) {
	ts, _, reg := dedupServer(t, Options{})
	req := runRequest{Src: `print("ok")`}
	body, _ := json.Marshal(req)

	resp, raw := postV1(t, ts, req, map[string]string{api.HeaderContentDigest: api.Digest(body)})
	if out := decodeResult(t, raw); resp.StatusCode != 200 || out.Stdout != "ok\n" {
		t.Fatalf("matching digest: status %d stdout %q", resp.StatusCode, out.Stdout)
	}

	resp, raw = postV1(t, ts, req, map[string]string{api.HeaderContentDigest: api.Digest([]byte("other"))})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("mismatched digest: status = %d, want 422", resp.StatusCode)
	}
	var env api.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if env.Err.Code != api.CodeIntegrity {
		t.Fatalf("code = %q, want %q", env.Err.Code, api.CodeIntegrity)
	}
	var sb strings.Builder
	_ = reg.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "pyserve_integrity_rejects_total 1") {
		t.Errorf("exposition missing pyserve_integrity_rejects_total 1")
	}
}

// TestResultDigestStamped: every /v1/run response carries an
// X-Pyserve-Digest matching its body bytes — success and rejection
// alike — so the router can fail closed on damaged responses.
func TestResultDigestStamped(t *testing.T) {
	ts, _, _ := dedupServer(t, Options{})
	cases := []runRequest{
		{Src: `print(40 + 2)`},           // 200
		{Src: ""},                        // 400 missing_program
		{Src: `print(1)`, Mode: "bogus"}, // 400 bad_mode
	}
	for i, req := range cases {
		resp, raw := postV1(t, ts, req, nil)
		want := resp.Header.Get(api.HeaderResultDigest)
		if want == "" {
			t.Fatalf("case %d: response missing %s", i, api.HeaderResultDigest)
		}
		if got := api.Digest(raw); got != want {
			t.Fatalf("case %d: body digest %s != header %s", i, got, want)
		}
	}
}

// TestDedupConcurrentSingleFlight: many concurrent requests under one
// key produce exactly one execution; the rest absorb its result.
func TestDedupConcurrentSingleFlight(t *testing.T) {
	ts, srv, _ := dedupServer(t, Options{})
	const n = 16
	var wg sync.WaitGroup
	outs := make([]runResponse, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, raw := postV1(t, ts, runRequest{
				Src:            `print(sum(range(1000)))`,
				IdempotencyKey: "flight-1",
			}, nil)
			outs[i] = decodeResult(t, raw)
		}(i)
	}
	wg.Wait()
	deduped := 0
	for i, out := range outs {
		if out.Stdout != "499500\n" {
			t.Fatalf("request %d: stdout %q", i, out.Stdout)
		}
		if out.Executions > 1 {
			t.Fatalf("request %d: Executions = %d", i, out.Executions)
		}
		if out.Deduped {
			deduped++
		}
	}
	st := srv.DedupStats()
	if st.Recorded != 1 {
		t.Fatalf("Recorded = %d, want 1 (single flight)", st.Recorded)
	}
	if st.MaxExecutions != 1 {
		t.Fatalf("MaxExecutions = %d, want 1", st.MaxExecutions)
	}
	if deduped != n-1 {
		t.Fatalf("deduped replies = %d, want %d", deduped, n-1)
	}
}

// TestDedupCacheTTL: recorded results expire; the next consult after
// expiry executes afresh.
func TestDedupCacheTTL(t *testing.T) {
	c := newDedupCache(time.Minute, 8)
	t0 := time.Unix(1000, 0)

	v, e, _ := c.consult("k", t0)
	if v != dedupExecute {
		t.Fatalf("first consult = %d, want execute", v)
	}
	c.resolve(e, &api.RunResultV1{Stdout: "x", Executions: 1}, true, t0)

	if v, _, rec := c.consult("k", t0.Add(30*time.Second)); v != dedupHit || rec.Stdout != "x" {
		t.Fatalf("within TTL: verdict %d", v)
	}
	if v, _, _ := c.consult("k", t0.Add(2*time.Minute)); v != dedupExecute {
		t.Fatalf("after TTL: verdict %d, want execute", v)
	}
	if st := c.stats(); st.Expirations != 1 {
		t.Fatalf("Expirations = %d, want 1", st.Expirations)
	}
}

// TestDedupShedNotRecorded: resolving uncacheably (shed — the body
// never ran) releases the key so the retry executes.
func TestDedupShedNotRecorded(t *testing.T) {
	c := newDedupCache(time.Minute, 8)
	t0 := time.Unix(1000, 0)
	_, e, _ := c.consult("k", t0)
	c.resolve(e, nil, false, t0)
	if v, _, _ := c.consult("k", t0); v != dedupExecute {
		t.Fatalf("consult after shed = %d, want execute", v)
	}
	if st := c.stats(); st.Recorded != 0 {
		t.Fatalf("Recorded = %d, want 0", st.Recorded)
	}
}

// TestDedupCapacityEviction: at capacity the oldest resolved entry is
// evicted; when every entry is pending the consult degrades to bypass
// (at-least-once for that key) rather than evicting an in-flight entry.
func TestDedupCapacityEviction(t *testing.T) {
	c := newDedupCache(time.Minute, 2)
	t0 := time.Unix(1000, 0)

	_, e1, _ := c.consult("a", t0)
	c.resolve(e1, &api.RunResultV1{Stdout: "a"}, true, t0)
	_, e2, _ := c.consult("b", t0.Add(time.Second))
	c.resolve(e2, &api.RunResultV1{Stdout: "b"}, true, t0.Add(time.Second))

	// Third key evicts "a" (oldest resolved).
	if v, _, _ := c.consult("c", t0.Add(2*time.Second)); v != dedupExecute {
		t.Fatal("consult c: want execute")
	}
	if st := c.stats(); st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}
	// The evicted key executes afresh (evicting "b" in turn — the cache
	// is full again).
	if v, _, _ := c.consult("a", t0.Add(2*time.Second)); v != dedupExecute {
		t.Fatal("evicted key a should execute afresh")
	}

	// All-pending cache refuses new keys instead of evicting in-flight.
	c2 := newDedupCache(time.Minute, 1)
	c2.consult("p", t0)
	if v, _, _ := c2.consult("q", t0); v != dedupBypass {
		t.Fatalf("all-pending consult = %d, want bypass", v)
	}
}

// TestDedupWaitCancel: a waiter whose context ends stops waiting.
func TestDedupWaitCancel(t *testing.T) {
	c := newDedupCache(time.Minute, 8)
	_, e, _ := c.consult("k", time.Unix(1000, 0))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if c.wait(ctx, e) {
		t.Fatal("wait returned true on cancelled context")
	}
}
