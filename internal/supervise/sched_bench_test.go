package supervise

import (
	"sort"
	"testing"
	"time"

	"repro/internal/benchgate"
	"repro/internal/pycompile"
	"repro/internal/runtime"
)

// TestSchedOverheadGuard is the performance regression gate for the
// scheduler's single-job path: with no contention (one job at a time,
// zero waiters), the yield fast path must reduce to one heartbeat store
// and one atomic load, so a job submitted to the scheduler costs at most
// the p50 overhead the shared benchgate table allows versus the same job
// compiled and run directly on a warm runtime.Runner. The direct leg
// mirrors what the scheduler does per job — compile plus RunCode — and
// resets its Runner outside the timed span, as the scheduler does after
// the reply. Best-of-N attempts with interleaved legs keep scheduler
// noise from flaking the gate; a negative overhead trivially passes.
func TestSchedOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing guard skipped under the race detector")
	}
	gate := benchgate.Lookup("sched-overhead")

	limits := schedTestLimits()
	cfg := runtime.ServingConfig(runtime.CPython)
	cfg.Limits = limits
	direct, err := runtime.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched := NewSched(SchedConfig{Slots: 1, DefaultLimits: limits})
	defer sched.Close()

	// Big enough that execution dominates submit bookkeeping, small
	// enough that 2x3x30 of them finish quickly; the default quantum
	// crosses several yield boundaries per job.
	src := loopSrc(100_000)
	p50 := func(lats []time.Duration) time.Duration {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		return lats[len(lats)/2]
	}
	runDirect := func(n int) time.Duration {
		t.Helper()
		lats := make([]time.Duration, 0, n)
		for i := 0; i < n; i++ {
			start := time.Now()
			code, err := pycompile.CompileSource("ovh.py", src)
			if err != nil {
				t.Fatal(err)
			}
			_, err = direct.RunCode(code)
			lats = append(lats, time.Since(start))
			if err != nil {
				t.Fatalf("direct job failed: %v", err)
			}
			direct.Reset()
		}
		return p50(lats)
	}
	runSched := func(n int) time.Duration {
		t.Helper()
		lats := make([]time.Duration, 0, n)
		for i := 0; i < n; i++ {
			start := time.Now()
			res := sched.Submit(&Job{Name: "ovh.py", Src: src, Mode: runtime.CPython})
			lats = append(lats, time.Since(start))
			if res.Class != ClassOK {
				t.Fatalf("sched job failed: %s %q", res.Class, res.Err)
			}
		}
		return p50(lats)
	}

	runDirect(5) // warm both legs
	runSched(5)

	const (
		attempts = 3
		jobs     = 30
	)
	best := 1e18
	for attempt := 1; attempt <= attempts; attempt++ {
		baseline := runDirect(jobs)
		sliced := runSched(jobs)
		overhead := (float64(sliced) - float64(baseline)) / float64(baseline) * 100
		if overhead < best {
			best = overhead
		}
		t.Logf("attempt %d: direct Runner p50 %v, scheduler p50 %v, overhead %+.2f%%", attempt, baseline, sliced, overhead)
		if best <= gate.MaxOverheadPct {
			return
		}
	}
	t.Fatalf("scheduler single-job p50 overhead %+.2f%% over a direct Runner, gate allows at most %.2f%%", best, gate.MaxOverheadPct)
}
