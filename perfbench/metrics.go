package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. The two catalogs below
// are the benchmark's whole vocabulary: a --trace 0 run prints exactly
// endToEnd, a --trace 1 run exactly perLayer, and BENCHMARK.json lists the
// same names with the same units (the smoke test checks that it does).
type metricDef struct {
	name string
	unit string
}

var endToEnd = []metricDef{
	{"route_ms_p50", "ms"},
	{"route_ms_p90", "ms"},
	{"sort_ms_p50", "ms"},
	{"sort_ms_p90", "ms"},
	{"ops_per_s", "1/s"},
	{"rounds_per_op", "count"},
	{"words_per_op", "count"},
	{"max_edge_words", "count"},
	{"alloc_mib_per_op", "MiB"},
	{"peak_rss_mib", "MiB"},
	{"setup_s", "s"},
	{"ok_ratio", "ratio"},
}

var perLayer = []metricDef{
	// internal/clique: engine barrier and delivery (replayed runs).
	{"clique.run_ms", "ms"},
	{"clique.deliver_ms", "ms"},
	{"clique.deliver_share", "ratio"},
	{"clique.park_ms_per_node", "ms"},
	{"clique.unattributed_ms", "ms"},
	{"clique.rounds", "count"},
	{"clique.words", "count"},
	{"clique.max_edge_words", "count"},
	// internal/core: protocol staging and frames.
	{"core.compute_ms", "ms"},
	{"core.frame_ns_per_word", "ns"},
	// internal/bipartite: colourings behind SharedCompute.
	{"bipartite.shared_ms", "ms"},
	{"bipartite.shared_hit_ratio", "ratio"},
	// internal/core: planner, fingerprint, census and plan cache.
	{"core.plan_ms", "ms"},
	{"core.fingerprint_ms", "ms"},
	{"core.census_rounds_per_op", "count"},
	{"core.plan_cache_hit_ratio", "ratio"},
	{"core.plan_cache_invalidations", "count"},
	// congestedclique: session self time and per-class latencies.
	{"congestedclique.self_ms", "ms"},
	{"congestedclique.route_full_ms_p50", "ms"},
	{"congestedclique.sort_full_ms_p50", "ms"},
	{"congestedclique.route_direct_ms_p50", "ms"},
	{"congestedclique.route_broadcast_ms_p50", "ms"},
	{"congestedclique.sort_presorted_ms_p50", "ms"},
	{"congestedclique.route_small_ms_p50", "ms"},
	// internal/service: wire round trip and queue wait.
	{"service.ping_rtt_ms_p50", "ms"},
	{"service.rtt_ms_p50", "ms"},
	{"service.sort_rtt_ms_p50", "ms"},
	{"service.overhead_ms", "ms"},
	{"service.sort_overhead_ms", "ms"},
	{"service.queue_excess_ms_p50", "ms"},
	{"service.queue_excess_ms_p90", "ms"},
	{"service.shed_ratio", "ratio"},
	{"service.batched_ratio", "ratio"},
	// Go runtime and the benchmark itself.
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.gc_per_op", "count"},
	{"bench.late_ms_p99", "ms"},
	{"bench.trace_overhead", "ratio"},
	{"bench.calibration_ms", "ms"},
	{"bench.edge_over_64_ops", "count"},
	{"failed_ratio", "ratio"},
}

// samples collects durations in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, ms(d)) }

// quantile returns the q-quantile by linear interpolation between closest
// ranks (0 for an empty sample).
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t / float64(len(s))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(v []float64) float64 { return samples(v).quantile(0.5) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runtimeCounters is a cheap (no stop-the-world) snapshot of the Go
// runtime's allocation, GC-cycle and CPU-class counters.
type runtimeCounters struct {
	allocBytes float64
	gcCycles   float64
	gcCPU      float64
	totalCPU   float64
}

var runtimeSample = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeCounters {
	metrics.Read(runtimeSample)
	v := func(i int) float64 {
		switch runtimeSample[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(runtimeSample[i].Value.Uint64())
		case metrics.KindFloat64:
			return runtimeSample[i].Value.Float64()
		}
		return 0
	}
	return runtimeCounters{allocBytes: v(0), gcCycles: v(1), gcCPU: v(2), totalCPU: v(3)}
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
