package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkMetrics reads the metric names and units BENCHMARK.json
// declares for untraced (end_to_end) and traced (per_layer) runs.
func benchmarkMetrics(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

// lastLine decodes the result line, requiring exactly its four keys.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-1]
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &keys); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	if len(keys) != 4 {
		t.Fatalf("last line has keys %v, want correct, attempted, failed, metrics", keys)
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestWorkloads runs each workload briefly, untraced and traced, and
// checks that every metric BENCHMARK.json names is printed with its
// unit; then it corrupts one expected output and requires the oracle to
// report a wrong answer.
func TestWorkloads(t *testing.T) {
	e2e, layers := benchmarkMetrics(t)
	for _, w := range []string{"mix-warm", "tiny-fresh", "attribution"} {
		t.Run(w, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				var out, log bytes.Buffer
				o := options{workload: w, seed: 7, seconds: 2, trace: traced, root: "..",
					spans: filepath.Join(t.TempDir(), "spans.jsonl")}
				if _, err := run(o, &out, &log, false); err != nil {
					t.Fatal(err)
				}
				res := lastLine(t, out.String())
				if !res.Correct || res.Attempted == 0 {
					t.Fatalf("trace=%v: correct=%v attempted=%d\n%s", traced, res.Correct, res.Attempted, log.String())
				}
				want := e2e
				if traced {
					want = layers
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: printed %d metrics, BENCHMARK.json names %d", traced, len(res.Metrics), len(want))
				}
				for name, unit := range want {
					if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
						t.Errorf("trace=%v: metric %s printed as %+v, want unit %q", traced, name, got, unit)
					}
				}
			}

			var out, log bytes.Buffer
			o := options{workload: w, seed: 7, seconds: 1, root: ".."}
			if _, err := run(o, &out, &log, true); err != nil {
				t.Fatal(err)
			}
			if res := lastLine(t, out.String()); res.Correct {
				t.Fatal("a corrupted expected output passed the oracle")
			}
			if !strings.Contains(log.String(), "wrong answer: request ") {
				t.Fatalf("wrong answer not logged:\n%s", log.String())
			}
		})
	}
}
