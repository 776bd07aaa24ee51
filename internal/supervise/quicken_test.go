package supervise

import (
	"sync"
	"testing"

	"repro/internal/pycompile"
	"repro/internal/runtime"
)

// TestSharedQuickenedCode: one precompiled code object executed
// concurrently in every scheduler slot. Quickened instruction
// streams and inline-cache slots are per-VM state; the shared
// *pycode.Code must stay immutable, or the race detector (CI's -race
// leg) and the output comparison below catch it.
func TestSharedQuickenedCode(t *testing.T) {
	src := `
STEP = 2
class Acc:
    def __init__(self):
        self.total = 0
    def bump(self, v):
        self.total = self.total + v
a = Acc()
i = 0
while i < 400:
    a.bump(STEP)
    a.total = a.total + STEP
    i = i + 1
print(a.total)
`
	const want = "1600\n"
	code, err := pycompile.CompileSource("shared.py", src)
	if err != nil {
		t.Fatal(err)
	}
	p := testSched(t, SchedConfig{Slots: 4})

	const jobs = 32
	var wg sync.WaitGroup
	results := make([]*JobResult, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = p.Submit(&Job{Name: "shared.py", Code: code, Mode: runtime.CPython})
		}(i)
	}
	wg.Wait()

	hits := uint64(0)
	for i, res := range results {
		if res.Class != ClassOK {
			t.Fatalf("job %d: class %s (%s)", i, res.Class, res.Err)
		}
		if res.Output != want {
			t.Fatalf("job %d: output %q, want %q", i, res.Output, want)
		}
		hits += res.IC.Hits()
	}
	if hits == 0 {
		t.Fatal("no IC hits across shared-code jobs; quickening not active in the scheduler")
	}
	st := p.Stats()
	if st.Poisoned != 0 || st.Wedged != 0 {
		t.Fatalf("shared-code traffic condemned Runners: %+v", st)
	}
}

// TestSharedQuickenedCodePolyFused extends the shared-code race test to
// the tier-2 machinery: the program drives one attribute site through
// two receiver classes (forcing mono->poly promotion), then rebinds a
// global and reassigns a method mid-run (forcing guard invalidation and
// de-fusion of superinstructions). All of that state — poly stub
// chains, fused instruction copies, de-quickening rewrites — is per-VM;
// 32 jobs on 4 slots sharing one *pycode.Code must never see each
// other's rewrites. CI's -race leg runs this via the
// TestSharedQuickenedCode prefix.
func TestSharedQuickenedCodePolyFused(t *testing.T) {
	src := `
STEP = 2
class A:
    def __init__(self):
        self.v = 0
    def bump(self, n):
        self.v = self.v + n
class B:
    def __init__(self):
        self.v = 0
        self.pad = 0
    def bump(self, n):
        self.v = self.v + n + 1
def other(self, n):
    self.v = self.v + n * 2
def drive(objs, reps):
    i = 0
    while i < reps:
        j = 0
        while j < 2:
            o = objs[j]
            o.bump(STEP)
            o.v = o.v + STEP
            j = j + 1
        i = i + 1
objs = [A(), B()]
drive(objs, 50)
A.bump = other
STEP = 3
drive(objs, 50)
print(objs[0].v + objs[1].v)
`
	const want = "1250\n"
	code, err := pycompile.CompileSource("shared_poly.py", src)
	if err != nil {
		t.Fatal(err)
	}
	p := testSched(t, SchedConfig{Slots: 4})

	const jobs = 32
	var wg sync.WaitGroup
	results := make([]*JobResult, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = p.Submit(&Job{Name: "shared_poly.py", Code: code, Mode: runtime.CPython})
		}(i)
	}
	wg.Wait()

	var poly, fused, defused, invalidations uint64
	for i, res := range results {
		if res.Class != ClassOK {
			t.Fatalf("job %d: class %s (%s)", i, res.Class, res.Err)
		}
		if res.Output != want {
			t.Fatalf("job %d: output %q, want %q", i, res.Output, want)
		}
		poly += res.IC.PolyHits
		fused += res.IC.FusedHits
		defused += res.IC.Defused
		invalidations += res.IC.Invalidations
	}
	if poly == 0 {
		t.Error("no polymorphic-stub hits across shared-code jobs; two-class site did not promote")
	}
	if fused == 0 {
		t.Error("no fused-superinstruction hits across shared-code jobs")
	}
	if invalidations == 0 {
		t.Error("no guard invalidations despite in-program global rebinding and method reassignment")
	}
	t.Logf("aggregate over %d jobs: poly hits %d, fused hits %d, defused %d, invalidations %d",
		jobs, poly, fused, defused, invalidations)
	st := p.Stats()
	if st.Poisoned != 0 || st.Wedged != 0 {
		t.Fatalf("shared-code traffic condemned Runners: %+v", st)
	}
}
