package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// tinyN is each workload's clique size in the smoke runs.
var tinyN = map[string]int{
	"dense-pipeline":   16,
	"sparse-recurring": 64,
	"service-open":     16,
}

// benchmarkMetrics reads the metric catalog BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

func tinyRun(t *testing.T, workload string, extra ...string) (int, resultLine, string) {
	t.Helper()
	args := append([]string{
		"--workload", workload, "--seed", "7", "--seconds", "0.3",
		"--n", strconv.Itoa(tinyN[workload]), "--min-samples", "3", "--setups", "1",
		"--spans", t.TempDir(),
	}, extra...)
	var stdout, stderr bytes.Buffer
	code := mainArgs(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s\n%s", workload, err, stdout.String(), stderr.String())
	}
	return code, res, stderr.String()
}

// TestSmokeMetrics runs every workload briefly, untraced and traced, and
// checks that each run is correct and prints exactly the metrics
// BENCHMARK.json declares, with the declared units.
func TestSmokeMetrics(t *testing.T) {
	e2e, layer := benchmarkMetrics(t)
	if len(e2e) != len(endToEnd) || len(layer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the program %d+%d",
			len(e2e), len(layer), len(endToEnd), len(perLayer))
	}
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			code, res, log := tinyRun(t, w, "--trace", trace)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: exit %d, correct=%v, %d/%d failed\n%s", w, trace, code, res.Correct, res.Failed, res.Attempted, log)
			}
			want := e2e
			if trace == "1" {
				want = layer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", w, trace, name, got, unit)
				}
			}
			if trace == "1" && w == "sparse-recurring" && res.Metrics["service.rtt_ms_p50"].Value <= 0 {
				t.Errorf("sparse-recurring's traced run did not measure the service layer")
			}
			if trace == "0" {
				for name := range e2e {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", w, name, res.Metrics[name].Value)
					}
				}
			}
		}
	}
}

// TestSmokeCorruptionCaught damages one output per workload before it is
// verified; the run must report it and exit non-zero.
func TestSmokeCorruptionCaught(t *testing.T) {
	for _, w := range workloadNames() {
		code, res, _ := tinyRun(t, w, "--trace", "0", "--corrupt")
		if code == 0 || res.Correct || res.Failed < 1 {
			t.Errorf("%s: corrupted output not caught: exit %d, correct=%v, failed=%d", w, code, res.Correct, res.Failed)
		}
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}
