package supervise

import (
	"strings"
	"testing"
	"time"

	"repro/internal/interp"
	"repro/internal/runtime"
)

// limitTrips is the satellite matrix: one hostile program per governor
// limit, each expected to surface through the scheduler as its
// dedicated class with the pyrun exit code preserved.
var limitTrips = []struct {
	name   string
	src    string
	limits interp.Limits
	class  Class
	exit   int
}{
	{
		name:   "step-budget",
		src:    "i = 0\nwhile True:\n    i = i + 1\n",
		limits: interp.Limits{MaxSteps: 200_000},
		class:  ClassTimeout,
		exit:   4,
	},
	{
		name:   "wall-clock",
		src:    "i = 0\nwhile True:\n    i = i + 1\n",
		limits: interp.Limits{MaxSteps: 1 << 40, Deadline: 30 * time.Millisecond},
		class:  ClassTimeout,
		exit:   4,
	},
	{
		name:   "heap-limit",
		src:    "l = []\nwhile True:\n    l.append(\"0123456789abcdef0123456789abcdef\")\n",
		limits: interp.Limits{MaxHeapBytes: 1 << 20},
		class:  ClassMemory,
		exit:   5,
	},
	{
		name:   "recursion-limit",
		src:    "def f(n):\n    return f(n + 1)\nf(0)\n",
		limits: interp.Limits{MaxRecursionDepth: 100},
		class:  ClassRecursion,
		exit:   6,
	},
	{
		name:   "output-limit",
		src:    "while True:\n    print(\"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\")\n",
		limits: interp.Limits{MaxOutputBytes: 64 << 10},
		class:  ClassOutput,
		exit:   7,
	},
}

// TestLimitTripClassesAllModes runs every limit-trip program in every
// runtime mode through one shared scheduler: it must classify each trip
// correctly (preserving the pyrun exit-code mapping), must not poison
// the Runner over an expected limit trip, and must serve a correct
// result immediately afterwards.
func TestLimitTripClassesAllModes(t *testing.T) {
	// The generous backstop deadline keeps wall-clock out of the
	// picture (the -race detector slows the alloc-bomb well past 2s);
	// each case's own limit is the outcome-decider.
	p := testSched(t, SchedConfig{Slots: 1,
		DefaultLimits: interp.Limits{Deadline: 30 * time.Second}})
	for m := runtime.Mode(0); m < runtime.NumModes; m++ {
		for _, tc := range limitTrips {
			t.Run(m.String()+"/"+tc.name, func(t *testing.T) {
				res := p.Submit(&Job{
					Name:   tc.name + ".py",
					Src:    tc.src,
					Mode:   m,
					Limits: tc.limits,
				})
				if res.Class != tc.class {
					t.Fatalf("class %s (%q), want %s", res.Class, res.Err, tc.class)
				}
				if res.Class.ExitCode() != tc.exit {
					t.Fatalf("exit %d, want %d", res.Class.ExitCode(), tc.exit)
				}
				after := p.Submit(&Job{Name: "probe.py", Src: "print(6 * 7)\n", Mode: m})
				if after.Class != ClassOK || after.Output != "42\n" {
					t.Fatalf("scheduler unusable after %s: class %s output %q err %q",
						tc.name, after.Class, after.Output, after.Err)
				}
			})
		}
	}
	if s := p.Stats(); s.Poisoned != 0 || s.Wedged != 0 {
		t.Fatalf("limit trips must not poison or wedge Runners: %+v", s)
	}
}

// hotTripSrc is a program whose hot loop (in a function, so the tracer
// sees fast locals) runs long enough to be traced and compiled, then
// keeps running until the step budget trips inside the compiled code —
// the JIT error-deopt path.
const hotTripSrc = `def work(n):
    acc = 0
    i = 0
    while i < n:
        acc = acc + (i & 1023)
        i = i + 1
    return acc
print(work(10000000))
`

// TestJITErrorDeoptMidTraceThroughPool: in the JIT modes, a step budget
// chosen to trip well after the hot-loop threshold fires inside compiled
// code. The scheduler must still see a clean ClassTimeout (exit 4), the
// deopt must not poison the Runner, and a control run at the runtime
// layer confirms the trip really was an error-forced deopt mid-trace.
func TestJITErrorDeoptMidTraceThroughPool(t *testing.T) {
	for _, m := range []runtime.Mode{runtime.PyPyJIT, runtime.V8Like} {
		t.Run(m.String(), func(t *testing.T) {
			budget := uint64(500_000) // far past any hot-loop threshold
			// Control: the same program and budget on a bare Runner, to
			// prove the budget trips inside a compiled trace.
			cfg := runtime.DefaultConfig(m)
			cfg.Core = runtime.CountOnly
			cfg.Warmups = 0
			cfg.Measures = 1
			cfg.Limits = interp.Limits{MaxSteps: budget}
			r, err := runtime.NewRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, err = r.Run("hot.py", hotTripSrc)
			if err == nil || !strings.Contains(err.Error(), "TimeoutError") {
				t.Fatalf("control run: want TimeoutError, got %v", err)
			}
			if !strings.Contains(err.Error(), "compiled code") {
				t.Fatalf("budget tripped outside compiled code: %v", err)
			}

			// Through the scheduler: same trip, supervised.
			p := testSched(t, SchedConfig{Slots: 1,
				DefaultLimits: interp.Limits{Deadline: 5 * time.Second}})
			res := p.Submit(&Job{Name: "hot.py", Src: hotTripSrc, Mode: m,
				Limits: interp.Limits{MaxSteps: budget}})
			if res.Class != ClassTimeout || res.Class.ExitCode() != 4 {
				t.Fatalf("class %s exit %d (%q), want timeout/4",
					res.Class, res.Class.ExitCode(), res.Err)
			}
			// The deopt left the Runner healthy: it runs the same hot
			// function to completion when the budget allows.
			okSrc := "def work(n):\n    acc = 0\n    i = 0\n    while i < n:\n        acc = acc + i\n        i = i + 1\n    return acc\nprint(work(5000))\n"
			after := p.Submit(&Job{Name: "hot-ok.py", Src: okSrc, Mode: m})
			if after.Class != ClassOK || after.Output != "12497500\n" {
				t.Fatalf("scheduler unusable after mid-trace deopt: class %s output %q err %q",
					after.Class, after.Output, after.Err)
			}
			if s := p.Stats(); s.Poisoned != 0 {
				t.Fatalf("error deopt poisoned the Runner: %+v", s)
			}
		})
	}
}

// TestClassifyMatchesRunnerErrors pins Classify against real errors from
// each governor limit plus an ordinary Python error.
func TestClassifyMatchesRunnerErrors(t *testing.T) {
	cfg := runtime.DefaultConfig(runtime.CPython)
	cfg.Core = runtime.CountOnly
	cfg.Warmups = 0
	cfg.Measures = 1
	cfg.Limits = interp.Limits{MaxSteps: 100_000}
	r, err := runtime.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Run("spin.py", "i = 0\nwhile True:\n    i = i + 1\n")
	if got := Classify(err); got != ClassTimeout {
		t.Fatalf("timeout classify: %s", got)
	}
	r2, err := runtime.NewRunner(runtime.DefaultConfig(runtime.CPython))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r2.Run("boom.py", "print(undefined_name)\n")
	if got := Classify(err); got != ClassError {
		t.Fatalf("NameError classify: %s", got)
	}
	if got := Classify(nil); got != ClassOK {
		t.Fatalf("nil classify: %s", got)
	}
}
