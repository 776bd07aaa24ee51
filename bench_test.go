package repro_test

// One testing.B benchmark per table and figure of the paper, each running
// the corresponding experiment on a reduced configuration (quick sweep
// points, three-benchmark sets) so `go test -bench=.` regenerates the
// whole evaluation in miniature. Component microbenchmarks at the end
// measure the simulator itself.

import (
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/emit"
	"repro/internal/experiments"
	"repro/internal/gc"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/jit"
	"repro/internal/pybench"
	"repro/internal/pycompile"
	"repro/internal/runtime"
	"repro/internal/supervise"
	"repro/internal/telemetry"
	"repro/internal/uarch"
)

// benchExperiment runs one experiment per iteration with quick settings.
func benchExperiment(b *testing.B, id string, benchNames []string) {
	b.Helper()
	opts := &experiments.Options{
		W:          io.Discard,
		Quick:      true,
		Benchmarks: benchNames,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(id, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// small benchmark sets keep the per-iteration cost sane.
var smallSet = []string{"nqueens", "telco", "unpack_seq"}
var allocSet = []string{"telco", "unpack_seq", "logging_format"}
var jsSet = []string{"crypto_pyaes", "deltablue", "regex_v8"}

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1", nil) }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2", nil) }

func BenchmarkFig4a(b *testing.B)       { benchExperiment(b, "fig4a", smallSet) }
func BenchmarkFig4b(b *testing.B)       { benchExperiment(b, "fig4b", smallSet) }
func BenchmarkFig4Summary(b *testing.B) { benchExperiment(b, "fig4summary", smallSet) }
func BenchmarkFig5(b *testing.B)        { benchExperiment(b, "fig5", smallSet) }
func BenchmarkFig6(b *testing.B)        { benchExperiment(b, "fig6", jsSet) }

func BenchmarkFig7(b *testing.B)  { benchExperiment(b, "fig7", smallSet[:2]) }
func BenchmarkFig8(b *testing.B)  { benchExperiment(b, "fig8", smallSet[:2]) }
func BenchmarkFig9(b *testing.B)  { benchExperiment(b, "fig9", jsSet[:2]) }
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10", allocSet) }
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11", allocSet) }
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12", allocSet[:2]) }
func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13", allocSet) }
func BenchmarkFig14(b *testing.B) { benchExperiment(b, "fig14", allocSet) }
func BenchmarkFig15(b *testing.B) { benchExperiment(b, "fig15", allocSet) }
func BenchmarkFig16(b *testing.B) { benchExperiment(b, "fig16", jsSet[:2]) }
func BenchmarkFig17(b *testing.B) { benchExperiment(b, "fig17", allocSet) }

// ---- Component microbenchmarks ----

const hotLoop = `
acc = 0
for i in xrange(20000):
    acc += i * 3 & 1023
print(acc)
`

// BenchmarkInterpreterThroughput measures interpreted bytecodes/sec with
// events discarded.
func BenchmarkInterpreterThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var out strings.Builder
		vm := interp.New(emit.NewEngine(isa.NullSink{}), gc.DefaultRefCountConfig(), &out)
		if err := vm.RunSource("bench", hotLoop); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpreterThroughputGoverned is BenchmarkInterpreterThroughput
// with every resource limit armed (but far from tripping): the two
// together measure the governor's dispatch-loop cost, which must stay
// under 5% (one threshold compare per bytecode plus a stride-paced
// deadline poll).
func BenchmarkInterpreterThroughputGoverned(b *testing.B) {
	limits := interp.Limits{
		MaxSteps:          1 << 40,
		MaxHeapBytes:      1 << 40,
		MaxRecursionDepth: 100000,
		Deadline:          time.Hour,
		MaxOutputBytes:    1 << 30,
	}
	for i := 0; i < b.N; i++ {
		var out strings.Builder
		vm := interp.New(emit.NewEngine(isa.NullSink{}), gc.DefaultRefCountConfig(), &out)
		vm.SetLimits(limits)
		if err := vm.RunSource("bench", hotLoop); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGovernedLimits arms every limit far from tripping, as in
// BenchmarkInterpreterThroughputGoverned.
var benchGovernedLimits = interp.Limits{
	MaxSteps:          1 << 40,
	MaxHeapBytes:      1 << 40,
	MaxRecursionDepth: 100000,
	Deadline:          time.Hour,
	MaxOutputBytes:    1 << 30,
}

// BenchmarkRunnerDirectGoverned is the supervised benchmark's baseline:
// the same governed program on a fresh single-use Runner per iteration,
// with no pool in the way.
func BenchmarkRunnerDirectGoverned(b *testing.B) {
	code, err := pycompile.CompileSource("bench", hotLoop)
	if err != nil {
		b.Fatal(err)
	}
	cfg := runtime.DefaultConfig(runtime.CPython)
	cfg.Core = runtime.CountOnly
	cfg.Warmups, cfg.Measures = 0, 1
	cfg.Limits = benchGovernedLimits
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := runtime.NewRunner(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.RunCode(code); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSupervisedThroughput runs the same governed program through a
// one-slot supervise scheduler: the delta against
// BenchmarkRunnerDirectGoverned is the full supervision overhead
// (admission, grant, yield heartbeats, health probe, warm reset), which
// must stay under 5%.
func BenchmarkSupervisedThroughput(b *testing.B) {
	code, err := pycompile.CompileSource("bench", hotLoop)
	if err != nil {
		b.Fatal(err)
	}
	sched := supervise.NewSched(supervise.SchedConfig{
		Slots:         1,
		DefaultLimits: benchGovernedLimits,
		// The armed-but-far MaxHeapBytes reserves 1 TiB per job; lift
		// the admission watermark accordingly.
		HeapWatermark: 1 << 41,
	})
	defer sched.Close()
	job := &supervise.Job{Name: "bench", Code: code, Mode: runtime.CPython}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := sched.Submit(job); res.Class != supervise.ClassOK {
			b.Fatalf("class %s: %s", res.Class, res.Err)
		}
	}
}

// BenchmarkSupervisedThroughputTelemetry is BenchmarkSupervisedThroughput
// with the scheduler fully instrumented (job counters, queue-wait and
// run-time histograms, lifecycle transitions, occupancy gauges): the
// delta between the two is the telemetry tax per job, which must stay
// within ~2% of the uninstrumented scheduler (see EXPERIMENTS.md).
func BenchmarkSupervisedThroughputTelemetry(b *testing.B) {
	code, err := pycompile.CompileSource("bench", hotLoop)
	if err != nil {
		b.Fatal(err)
	}
	sched := supervise.NewSched(supervise.SchedConfig{
		Slots:         1,
		DefaultLimits: benchGovernedLimits,
		HeapWatermark: 1 << 41,
		Metrics:       supervise.NewMetrics(telemetry.NewRegistry()),
	})
	defer sched.Close()
	job := &supervise.Job{Name: "bench", Code: code, Mode: runtime.CPython}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := sched.Submit(job); res.Class != supervise.ClassOK {
			b.Fatalf("class %s: %s", res.Class, res.Err)
		}
	}
}

// BenchmarkSimpleCoreSimulation measures the attribution pipeline
// end to end (interpreter + simple core + caches).
func BenchmarkSimpleCoreSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var out strings.Builder
		eng := emit.NewEngine(uarch.NewSimpleCore(uarch.DefaultConfig()))
		vm := interp.New(eng, gc.DefaultRefCountConfig(), &out)
		if err := vm.RunSource("bench", hotLoop); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOOOCoreSimulation measures the out-of-order model end to end.
func BenchmarkOOOCoreSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var out strings.Builder
		eng := emit.NewEngine(uarch.NewOOOCore(uarch.DefaultConfig()))
		vm := interp.New(eng, gc.DefaultRefCountConfig(), &out)
		if err := vm.RunSource("bench", hotLoop); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJITCompiledLoop measures compiled-trace execution.
func BenchmarkJITCompiledLoop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var out strings.Builder
		vm := interp.New(emit.NewEngine(isa.NullSink{}), gc.DefaultGenConfig(4<<20), &out)
		cfg := jit.DefaultConfig()
		cfg.HotThreshold = 50
		jit.New(vm, cfg)
		if err := vm.RunSource("bench", hotLoop); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinorGC measures generational collection under heavy churn.
func BenchmarkMinorGC(b *testing.B) {
	src := `
keep = []
for i in xrange(8000):
    t = [i, i + 1, i + 2]
    if i % 500 == 0:
        keep.append(t)
print(len(keep))
`
	for i := 0; i < b.N; i++ {
		var out strings.Builder
		vm := interp.New(emit.NewEngine(isa.NullSink{}), gc.DefaultGenConfig(32<<10), &out)
		if err := vm.RunSource("bench", src); err != nil {
			b.Fatal(err)
		}
		if vm.Heap.Stats.MinorGCs == 0 {
			b.Fatal("expected collections")
		}
	}
}

// BenchmarkSuiteCPythonBreakdown measures a full suite-benchmark run with
// attribution (the unit of work behind Fig 4).
func BenchmarkSuiteCPythonBreakdown(b *testing.B) {
	bm, err := pybench.ByName("richards")
	if err != nil {
		b.Fatal(err)
	}
	cfg := runtime.DefaultConfig(runtime.CPython)
	cfg.Core = runtime.SimpleCore
	cfg.Warmups, cfg.Measures = 0, 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := runtime.NewRunner(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.RunCode(bm.Compiled()); err != nil {
			b.Fatal(err)
		}
	}
}
