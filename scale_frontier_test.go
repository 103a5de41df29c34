//go:build !race

// The scale-out frontier guard runs at n=16384 and pins the sparse path's
// memory discipline with a hard allocation budget, and the scaling-shape
// guard compares wall times across n, so both are excluded from race builds
// (the race runtime's shadow memory would dominate the budget, and its
// instrumentation the timings); the non-race tier-1 run and the CI large-n
// smoke job execute them.

package congestedclique

import (
	"bufio"
	"context"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"congestedclique/internal/core"
	"congestedclique/internal/verify"
	"congestedclique/internal/workload"
)

// readVmHWM returns the process's peak resident set size in bytes from
// /proc/self/status, or 0 when unavailable (non-Linux).
func readVmHWM() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

// TestScaleFrontier16k is the tentpole acceptance pin: full Route and Sort
// protocol runs complete at n=16384 on the sparse path, outputs verify
// against the paper's correctness conditions, and the whole exercise stays
// within a 256 MiB allocation budget — a dense O(n²) representation would
// need gigabytes (16384² words is 2 GiB for a single n×n matrix), so the
// budget fails loudly if a quadratic structure sneaks back in. A second leg
// repeats both operations on a WithPlanCache handle, so the charged census
// (count transpose, aggregation at node 0, verdict broadcast) also runs and
// verifies at n=16384.
func TestScaleFrontier16k(t *testing.T) {
	const n = 16384
	ri, err := workload.ScaleSparseRoute(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	msgs := instanceMessages(ri)
	values := workload.ScalePresortedValues(n)

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	routeRes, err := Route(n, msgs, WithAlgorithm(AlgorithmAuto))
	if err != nil {
		t.Fatalf("route at n=%d: %v", n, err)
	}
	sortRes, err := Sort(n, values, WithAlgorithm(AlgorithmAuto))
	if err != nil {
		t.Fatalf("sort at n=%d: %v", n, err)
	}

	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	allocated := int64(after.TotalAlloc - before.TotalAlloc)
	const budget = 256 << 20
	if allocated > budget {
		t.Errorf("route+sort at n=%d allocated %d MiB, budget %d MiB — a quadratic structure is back on the sparse path",
			n, allocated>>20, int64(budget)>>20)
	}
	t.Logf("n=%d: route %v (%d rounds), sort %v (%d rounds), allocated %d MiB, peak RSS %d MiB",
		n, routeRes.Strategy, routeRes.Stats.Rounds, sortRes.Strategy, sortRes.Stats.Rounds,
		allocated>>20, readVmHWM()>>20)
	verifyFrontier(t, "uncached", msgs, values, routeRes, sortRes)

	cl, err := New(n, WithAlgorithm(AlgorithmAuto), WithPlanCache(4))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	cachedRoute, err := cl.Route(ctx, msgs)
	if err != nil {
		t.Fatalf("census-charged route at n=%d: %v", n, err)
	}
	cachedSort, err := cl.Sort(ctx, values)
	if err != nil {
		t.Fatalf("census-charged sort at n=%d: %v", n, err)
	}
	if got, want := cachedRoute.Stats.Rounds, routeRes.Stats.Rounds+core.RouteCensusRounds; got != want {
		t.Errorf("census-charged route took %d rounds, want %d", got, want)
	}
	if got, want := cachedSort.Stats.Rounds, sortRes.Stats.Rounds+core.SortCensusRounds; got != want {
		t.Errorf("census-charged sort took %d rounds, want %d", got, want)
	}
	verifyFrontier(t, "census-charged", msgs, values, cachedRoute, cachedSort)
}

// verifyFrontier checks a frontier Route and Sort against the paper's
// correctness conditions, including the strategies the planner must pick.
func verifyFrontier(t *testing.T, leg string, msgs [][]Message, values [][]int64, routeRes *RouteResult, sortRes *SortResult) {
	t.Helper()
	n := len(msgs)
	if routeRes.Strategy != StrategyDirect {
		t.Errorf("%s: route strategy %v, want direct", leg, routeRes.Strategy)
	}
	if sortRes.Strategy != SortStrategyPresorted {
		t.Errorf("%s: sort strategy %v, want presorted", leg, sortRes.Strategy)
	}

	// Full paper-invariant verification of both outputs.
	sent := make([][]core.Message, n)
	delivered := make([][]core.Message, n)
	for i := 0; i < n; i++ {
		for _, m := range msgs[i] {
			sent[i] = append(sent[i], core.Message{Src: m.Src, Dst: m.Dst, Seq: m.Seq, Payload: int64(m.Payload)})
		}
		for _, m := range routeRes.Delivered[i] {
			delivered[i] = append(delivered[i], core.Message{Src: m.Src, Dst: m.Dst, Seq: m.Seq, Payload: int64(m.Payload)})
		}
	}
	if err := verify.Routing(sent, delivered); err != nil {
		t.Errorf("%s: route output: %v", leg, err)
	}
	input := make([][]core.Key, n)
	results := make([]*core.SortResult, n)
	for i := 0; i < n; i++ {
		for j, v := range values[i] {
			input[i] = append(input[i], core.Key{Value: v, Origin: i, Seq: j})
		}
		res := &core.SortResult{Start: sortRes.Starts[i], Total: sortRes.Total}
		for _, k := range sortRes.Batches[i] {
			res.Batch = append(res.Batch, core.Key{Value: k.Value, Origin: k.Origin, Seq: k.Seq})
		}
		results[i] = res
	}
	if err := verify.Sorting(input, results); err != nil {
		t.Errorf("%s: sort output: %v", leg, err)
	}
}

// TestSparseRouteScalesWithTraffic guards the shape of the sparse path's
// cost curve, which the allocation budget above cannot see. A cache-on
// (census-charged) direct Route of the frontier instance moves O(n) messages,
// so with per-round work proportional to traffic its wall time grows about
// 4x from n=1024 to n=4096; work proportional to n per receiving node per
// round (Θ(n²) per round) makes it about 16x. The guard compares the best of
// several ops at each size — a ratio, so it holds on any machine speed — and
// fails above 8.
func TestSparseRouteScalesWithTraffic(t *testing.T) {
	const ops = 7
	best := func(n int) time.Duration {
		ri, err := workload.ScaleSparseRoute(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		msgs := instanceMessages(ri)
		cl, err := New(n, WithAlgorithm(AlgorithmAuto), WithPlanCache(4))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		fastest := time.Duration(math.MaxInt64)
		for op := 0; op < ops; op++ {
			start := time.Now()
			res, err := cl.Route(context.Background(), msgs)
			elapsed := time.Since(start)
			if err != nil {
				t.Fatalf("route at n=%d: %v", n, err)
			}
			if res.Strategy != StrategyDirect || res.Stats.Rounds != 1+core.RouteCensusRounds {
				t.Fatalf("route at n=%d: strategy %v in %d rounds, want census-charged direct", n, res.Strategy, res.Stats.Rounds)
			}
			fastest = min(fastest, elapsed)
		}
		return fastest
	}
	small, large := best(1024), best(4096)
	ratio := float64(large) / float64(small)
	t.Logf("census-charged direct route, best of %d: n=1024 %v, n=4096 %v, ratio %.2f (linear ~4, quadratic ~16)", ops, small, large, ratio)
	if ratio > 8 {
		t.Errorf("n=4096 route took %.1fx the n=1024 route (limit 8): per-round work is growing faster than traffic", ratio)
	}
}
