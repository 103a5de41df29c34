package congestedclique

// Pins for AlgorithmAuto's step arms at the public API. Every operation the
// planner sends to a step executor must deliver exactly what the
// Deterministic pipeline delivers, pass internal/verify, and cost the rounds
// its plan advertises — with and without the charged census, on plan-cache
// hits, and on the pipeline arm, which must match Deterministic's Stats
// outright. WithSparsePath is still accepted and changes nothing.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"congestedclique/internal/core"
	"congestedclique/internal/verify"
)

// presortedValues builds a globally presorted [][]int64 instance: node i's
// values are ascending and strictly below node i+1's.
func presortedValues(n int) [][]int64 {
	values := make([][]int64, n)
	v := int64(0)
	for i := 0; i < n; i++ {
		cnt := (i*7)%5 + 1
		if i%11 == 0 {
			cnt = 0
		}
		for j := 0; j < cnt; j++ {
			values[i] = append(values[i], v)
			v += int64(1 + (i+j)%3)
		}
	}
	return values
}

// sparsePathRouteInstances is the root-level route shape sweep: one instance
// per step arm plus the pipeline.
func sparsePathRouteInstances(t *testing.T, n int) map[string][][]Message {
	t.Helper()
	oneToMany := make([][]Message, n)
	for j := 0; j < 6*min(n, 8); j++ {
		oneToMany[0] = append(oneToMany[0], Message{Src: 0, Dst: 1 + j%4, Seq: j, Payload: int64(j)})
	}
	return map[string][][]Message{
		"empty":     make([][]Message, n),
		"direct":    scenarioMessages(t, "sparse", n, 1),
		"broadcast": oneToMany,
		"pipeline":  benchRouteWorkload(n),
	}
}

func routeResultEqual(t *testing.T, label string, got, want *RouteResult) {
	t.Helper()
	if got.Strategy != want.Strategy {
		t.Fatalf("%s: strategy %v, want %v", label, got.Strategy, want.Strategy)
	}
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats differ:\n got  %+v\n want %+v", label, got.Stats, want.Stats)
	}
	routeDeliveredEqual(t, label, got, want)
}

// coreRows converts public message rows to the core type.
func coreRows(n int, msgs [][]Message) [][]core.Message {
	rows := make([][]core.Message, n)
	for i := range msgs {
		for _, m := range msgs[i] {
			rows[i] = append(rows[i], toCoreMessage(m))
		}
	}
	return rows
}

// checkAutoRoute runs msgs under AlgorithmAuto (plus opts) and holds the
// result to the Deterministic pipeline's deliveries, internal/verify and the
// plan's round count; census says whether opts charge the census. It
// returns the result.
func checkAutoRoute(t *testing.T, label string, n int, msgs [][]Message, census bool, opts ...Option) *RouteResult {
	t.Helper()
	got, err := Route(n, msgs, append([]Option{WithAlgorithm(AlgorithmAuto)}, opts...)...)
	if err != nil {
		t.Fatalf("%s: auto: %v", label, err)
	}
	want, err := Route(n, msgs)
	if err != nil {
		t.Fatalf("%s: deterministic: %v", label, err)
	}
	routeDeliveredEqual(t, label, got, want)
	rows := coreRows(n, msgs)
	if err := verify.Routing(rows, coreRows(n, got.Delivered)); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	plan := core.PlanRoute(n, rows)
	if got.Strategy != strategyFromCore(plan.Strategy) {
		t.Fatalf("%s: strategy %v, plan says %v", label, got.Strategy, plan.Strategy)
	}
	rounds := plan.Rounds()
	if plan.Strategy == core.StrategyPipeline {
		rounds = want.Stats.Rounds
		if !census && got.Stats != want.Stats {
			t.Fatalf("%s: pipeline arm stats %+v, Deterministic %+v", label, got.Stats, want.Stats)
		}
	}
	if census {
		rounds += RouteCensusRounds
	}
	if got.Stats.Rounds != rounds {
		t.Fatalf("%s: %d rounds, the plan advertises %d", label, got.Stats.Rounds, rounds)
	}
	return got
}

func TestSparsePathRouteBitIdentical(t *testing.T) {
	t.Parallel()
	for _, n := range []int{64, 256} {
		for name, msgs := range sparsePathRouteInstances(t, n) {
			checkAutoRoute(t, fmt.Sprintf("n=%d/%s", n, name), n, msgs, false)
			checkAutoRoute(t, fmt.Sprintf("n=%d/%s/census", n, name), n, msgs, true, WithChargedCensus())
		}
	}
}

func TestSparsePathSortBitIdentical(t *testing.T) {
	t.Parallel()
	for _, n := range []int{64, 256} {
		for _, tc := range []struct {
			name     string
			values   [][]int64
			strategy SortStrategy
		}{
			{"empty", make([][]int64, n), SortStrategyEmpty},
			{"presorted", presortedValues(n), SortStrategyPresorted},
			{"pipeline", benchSortWorkload(n), SortStrategyPipeline},
		} {
			want, err := Sort(n, tc.values)
			if err != nil {
				t.Fatalf("n=%d/%s: deterministic: %v", n, tc.name, err)
			}
			input := make([][]core.Key, n)
			for i, row := range tc.values {
				for j, v := range row {
					input[i] = append(input[i], core.Key{Value: v, Origin: i, Seq: j})
				}
			}
			for _, census := range []bool{false, true} {
				label := fmt.Sprintf("n=%d/%s/census=%v", n, tc.name, census)
				opts := []Option{WithAlgorithm(AlgorithmAuto)}
				rounds := core.PlanSort(n, input).Rounds()
				if tc.strategy == SortStrategyPipeline {
					rounds = want.Stats.Rounds
				}
				if census {
					opts = append(opts, WithChargedCensus())
					rounds += SortCensusRounds
				}
				got, err := Sort(n, tc.values, opts...)
				if err != nil {
					t.Fatalf("%s: auto: %v", label, err)
				}
				if got.Strategy != tc.strategy {
					t.Fatalf("%s: strategy %v, want %v", label, got.Strategy, tc.strategy)
				}
				if got.Stats.Rounds != rounds {
					t.Fatalf("%s: %d rounds, the plan advertises %d", label, got.Stats.Rounds, rounds)
				}
				if tc.strategy == SortStrategyPipeline && !census && got.Stats != want.Stats {
					t.Fatalf("%s: pipeline arm stats %+v, Deterministic %+v", label, got.Stats, want.Stats)
				}
				if got.Total != want.Total {
					t.Fatalf("%s: total %d, want %d", label, got.Total, want.Total)
				}
				results := make([]*core.SortResult, n)
				for i := 0; i < n; i++ {
					if got.Starts[i] != want.Starts[i] || fmt.Sprint(got.Batches[i]) != fmt.Sprint(want.Batches[i]) {
						t.Fatalf("%s: node %d batch %v at %d, Deterministic %v at %d",
							label, i, got.Batches[i], got.Starts[i], want.Batches[i], want.Starts[i])
					}
					results[i] = &core.SortResult{Start: got.Starts[i], Total: got.Total}
					for _, k := range got.Batches[i] {
						results[i].Batch = append(results[i].Batch, toCoreKey(k))
					}
				}
				if err := verify.Sorting(input, results); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
		}
	}
}

// TestSparsePathPlanCacheHit pins the interplay of the cross-run plan cache
// with the step executors: the second run of the same instance hits the
// cache, whose plans always arm the census with a pinned fingerprint, and
// the census verify accepts it. Hit and miss cost the same census-charged
// direct route and deliver what the Deterministic pipeline delivers.
func TestSparsePathPlanCacheHit(t *testing.T) {
	t.Parallel()
	const n = 64
	ctx := context.Background()
	msgs := scenarioMessages(t, "sparse", n, 1)
	want, err := Route(n, msgs)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(n, WithPlanCache(8))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var runs [2]*RouteResult
	for i := range runs {
		res, err := cl.Route(ctx, msgs, WithAlgorithm(AlgorithmAuto))
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("run %d", i)
		if res.Strategy != StrategyDirect || res.Stats.Rounds != RouteCensusRounds+1 {
			t.Fatalf("%s: strategy %v in %d rounds, want census-charged direct", label, res.Strategy, res.Stats.Rounds)
		}
		routeDeliveredEqual(t, label, res, want)
		runs[i] = res
	}
	routeResultEqual(t, "hit vs miss", runs[1], runs[0])
	if cs := cl.CumulativeStats(); cs.PlanCacheMisses != 1 || cs.PlanCacheHits != 1 {
		t.Fatalf("plan cache: %d misses, %d hits, want 1 and 1", cs.PlanCacheMisses, cs.PlanCacheHits)
	}
}

// TestWithSparsePathChangesNothing pins the deprecated option as a no-op:
// accepted by New, results and Stats identical to a handle without it,
// census on and off.
func TestWithSparsePathChangesNothing(t *testing.T) {
	t.Parallel()
	const n = 64
	ctx := context.Background()
	for _, census := range [][]Option{nil, {WithChargedCensus()}} {
		base := append([]Option{WithAlgorithm(AlgorithmAuto)}, census...)
		plain, err := New(n, base...)
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := New(n, append(base, WithSparsePath())...)
		if err != nil {
			t.Fatal(err)
		}
		for name, msgs := range sparsePathRouteInstances(t, n) {
			want, err := plain.Route(ctx, msgs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sparse.Route(ctx, msgs)
			if err != nil {
				t.Fatal(err)
			}
			routeResultEqual(t, fmt.Sprintf("%s/census=%v", name, census != nil), got, want)
		}
		want, err := plain.Sort(ctx, presortedValues(n))
		if err != nil {
			t.Fatal(err)
		}
		got, err := sparse.Sort(ctx, presortedValues(n))
		if err != nil {
			t.Fatal(err)
		}
		if got.Strategy != want.Strategy || got.Stats != want.Stats || fmt.Sprint(got.Batches) != fmt.Sprint(want.Batches) {
			t.Fatalf("presorted sort/census=%v: WithSparsePath changed the result", census != nil)
		}
		plain.Close()
		sparse.Close()
	}
}

// TestAutoRouteCarriesWideSeq pins that the direct and broadcast arms carry
// Message.Seq as a full machine word: sequence numbers beyond 32 bits,
// negative ones and math.MaxInt64 arrive unchanged, with and without the
// charged census, on handles with and without WithSparsePath.
func TestAutoRouteCarriesWideSeq(t *testing.T) {
	t.Parallel()
	const n = 16
	seqs := []int{1 << 33, -1 << 40, math.MaxInt64}
	direct := make([][]Message, n)
	for src := range direct {
		for k, s := range seqs {
			direct[src] = append(direct[src], Message{Src: src, Dst: (src + 1 + k) % n, Seq: s, Payload: int64(src*10 + k)})
		}
	}
	// One source, six messages to one sink: past the direct budget, within
	// the broadcast gate.
	broadcast := make([][]Message, n)
	for k, s := range seqs {
		for d := 0; d < 2; d++ {
			broadcast[0] = append(broadcast[0], Message{Src: 0, Dst: 3, Seq: s - d, Payload: int64(2*k + d)})
		}
	}
	for _, tc := range []struct {
		name     string
		msgs     [][]Message
		strategy RouteStrategy
	}{
		{"direct", direct, StrategyDirect},
		{"broadcast", broadcast, StrategyBroadcast},
	} {
		for _, opt := range []struct {
			name string
			opts []Option
		}{
			{"plain", nil},
			{"census", []Option{WithChargedCensus()}},
			{"sparse-path", []Option{WithSparsePath()}},
			{"sparse-path+census", []Option{WithSparsePath(), WithChargedCensus()}},
		} {
			label := tc.name + "/" + opt.name
			res, err := Route(n, tc.msgs, append([]Option{WithAlgorithm(AlgorithmAuto)}, opt.opts...)...)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if res.Strategy != tc.strategy {
				t.Fatalf("%s: strategy %v, want %v", label, res.Strategy, tc.strategy)
			}
			want := make(map[Message]int)
			for _, row := range tc.msgs {
				for _, m := range row {
					want[m]++
				}
			}
			for dst, row := range res.Delivered {
				for _, m := range row {
					if m.Dst != dst || want[m] == 0 {
						t.Fatalf("%s: node %d received %+v, not a submitted message", label, dst, m)
					}
					want[m]--
				}
			}
			for m, left := range want {
				if left != 0 {
					t.Fatalf("%s: %+v not delivered", label, m)
				}
			}
		}
	}
}
