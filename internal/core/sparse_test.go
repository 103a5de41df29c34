package core_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"congestedclique/internal/clique"
	"congestedclique/internal/core"
	"congestedclique/internal/verify"
)

// Cross-checks of AutoRoute and AutoSort — the step executors of the empty,
// direct, broadcast and presorted arms, and the blocking pipeline arm — on
// three references: the Deterministic pipeline's output (core.Route and
// core.Sort), internal/verify, and the round and word costs the plan
// advertises.

// pairInstance gives every node pairs destinations, mult messages each.
func pairInstance(n, pairs, mult int) [][]core.Message {
	msgs := make([][]core.Message, n)
	for src := 0; src < n; src++ {
		for p := 0; p < pairs; p++ {
			for k := 0; k < mult; k++ {
				msgs[src] = append(msgs[src], core.Message{Src: src, Dst: (src + 1 + p) % n, Seq: len(msgs[src]), Payload: clique.Word(src*10_000 + len(msgs[src]))})
			}
		}
	}
	return msgs
}

// sparseTestInstances is the route shape catalog: every step arm plus the
// pipeline, with ragged and inactive rows mixed in.
func sparseTestInstances(n int) map[string][][]core.Message {
	oneToMany := make([][]core.Message, n)
	for j := 0; j < 6*min(n, 8); j++ {
		oneToMany[0] = append(oneToMany[0], core.Message{Src: 0, Dst: 1 + j%4, Seq: j, Payload: clique.Word(j)})
	}
	ragged := make([][]core.Message, n/2) // rows beyond len(msgs) are empty
	for src := 0; src < len(ragged); src += 3 {
		for p := 0; p < 1+src%3; p++ {
			ragged[src] = append(ragged[src], core.Message{Src: src, Dst: (src*7 + p) % n, Seq: p, Payload: clique.Word(100*src + p)})
		}
	}
	return map[string][][]core.Message{
		"empty":       make([][]core.Message, n),
		"direct":      pairInstance(n, 2, 1),
		"direct-full": pairInstance(n, 3, core.DirectMaxMultiplicity),
		"broadcast":   oneToMany,
		"ragged":      ragged,
		"pipeline":    pairInstance(n, n, 1),
	}
}

// padRows returns msgs with one row per node.
func padRows[T any](n int, rows [][]T) [][]T {
	out := make([][]T, n)
	copy(out, rows)
	return out
}

// runPipelineRoute routes msgs with the Deterministic pipeline.
func runPipelineRoute(t testing.TB, n int, msgs [][]core.Message) [][]core.Message {
	t.Helper()
	nw, err := clique.New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	outs := make([][]core.Message, n)
	err = nw.Run(func(nd *clique.Node) error {
		out, rErr := core.Route(nd, msgs[nd.ID()])
		outs[nd.ID()] = out
		return rErr
	})
	if err != nil {
		t.Fatalf("pipeline route: %v", err)
	}
	return outs
}

// checkAutoRoute executes plan through AutoRoute and checks it against the
// three references.
func checkAutoRoute(t testing.TB, label string, n int, msgs [][]core.Message, plan core.RoutePlan) {
	t.Helper()
	msgs = padRows(n, msgs)
	nw, err := clique.New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	got := make([][]core.Message, n)
	if err := core.AutoRoute(context.Background(), nw, msgs, plan, got); err != nil {
		t.Fatalf("%s: AutoRoute: %v", label, err)
	}
	m := nw.Metrics()
	if err := verify.Routing(msgs, got); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want := runPipelineRoute(t, n, msgs)
	for i := 0; i < n; i++ {
		if (len(got[i]) != 0 || len(want[i]) != 0) && !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: node %d outputs differ:\n auto     %v\n pipeline %v", label, i, got[i], want[i])
		}
	}

	// The census costs: one count word per busy (source, destination) pair,
	// a 4-word aggregate per node, a 3-word verdict per node.
	var rounds int
	var words, messages int64
	if plan.Census {
		pairs := 0
		for _, row := range msgs {
			seen := map[int]bool{}
			for _, msg := range row {
				if !seen[msg.Dst] {
					seen[msg.Dst] = true
					pairs++
				}
			}
		}
		rounds, words, messages = core.RouteCensusRounds, int64(pairs+7*n), int64(pairs+2*n)
	}
	total := int64(plan.TotalMessages)
	switch plan.Strategy {
	case core.StrategyDirect:
		words, messages = words+2*total, messages+total
	case core.StrategyBroadcast:
		words, messages = words+6*total, messages+2*total
	case core.StrategyPipeline:
		return // the pipeline's costs are Route's own, pinned by its tests
	}
	if m.Rounds != rounds+plan.Rounds() || m.TotalWords != words || m.TotalMessages != messages {
		t.Fatalf("%s: %d rounds, %d words, %d messages; plan advertises %d, %d, %d",
			label, m.Rounds, m.TotalWords, m.TotalMessages, rounds+plan.Rounds(), words, messages)
	}
}

// censusPlan arms the census on plan, with the cache fingerprint when fp.
func censusPlan(plan core.RoutePlan, n int, msgs [][]core.Message, fp bool) core.RoutePlan {
	plan.Census = true
	if fp {
		plan.CensusHasFP = true
		plan.CensusFP = core.RouteFingerprint(n, msgs).Hash
	}
	return plan
}

func TestSparseRouteRunMatchesDense(t *testing.T) {
	t.Parallel()
	for _, n := range []int{8, 48, 90} {
		for name, msgs := range sparseTestInstances(n) {
			for _, census := range []bool{false, true} {
				plan := core.PlanRoute(n, msgs)
				if census {
					plan = censusPlan(plan, n, msgs, true)
				}
				checkAutoRoute(t, fmt.Sprintf("n=%d/%s/census=%v", n, name, census), n, msgs, plan)
			}
		}
	}
}

// presortedKeysInstance builds rows that partition the global order: node i
// holds cnt(i) consecutive values, ascending across nodes.
func presortedKeysInstance(n int) [][]core.Key {
	keys := make([][]core.Key, n)
	v := int64(0)
	for i := 0; i < n; i++ {
		cnt := (i*7)%5 + 1
		if i%11 == 0 {
			cnt = 0 // inactive holders stay covered
		}
		for j := 0; j < cnt; j++ {
			keys[i] = append(keys[i], core.Key{Value: v, Origin: i, Seq: j})
			v += int64(1 + (i+j)%3)
		}
	}
	return keys
}

func TestSparseSortRunMatchesDense(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	for _, n := range []int{8, 48, 90} {
		for _, tc := range []struct {
			name     string
			keys     [][]core.Key
			strategy core.SortStrategy
		}{
			{"empty", make([][]core.Key, n), core.SortStrategyEmpty},
			{"presorted", presortedKeysInstance(n), core.SortStrategyPresorted},
		} {
			for _, census := range []bool{false, true} {
				label := fmt.Sprintf("n=%d/%s/census=%v", n, tc.name, census)
				plan := core.PlanSort(n, tc.keys)
				if plan.Strategy != tc.strategy {
					t.Fatalf("%s: strategy %v, want %v", label, plan.Strategy, tc.strategy)
				}
				plan.Census = census
				rounds := plan.Rounds()
				if census {
					rounds += core.SortCensusRounds
					if fp, ok := core.SortFingerprint(n, tc.keys); ok {
						plan.CensusHasFP = true
						plan.CensusFP = fp.Hash
					}
				}

				nw, err := clique.New(n)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]*core.SortResult, n)
				if err := core.AutoSort(ctx, nw, tc.keys, plan, got); err != nil {
					t.Fatalf("%s: AutoSort: %v", label, err)
				}
				if r := nw.Metrics().Rounds; r != rounds {
					t.Errorf("%s: %d rounds, plan advertises %d", label, r, rounds)
				}
				want := make([]*core.SortResult, n)
				err = nw.Run(func(nd *clique.Node) error {
					res, sErr := core.Sort(nd, tc.keys[nd.ID()])
					want[nd.ID()] = res
					return sErr
				})
				nw.Close()
				if err != nil {
					t.Fatalf("%s: pipeline sort: %v", label, err)
				}
				if err := verify.Sorting(tc.keys, got); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				for i := 0; i < n; i++ {
					g, w := got[i], want[i]
					if g.Start != w.Start || g.Total != w.Total ||
						!(len(g.Batch) == 0 && len(w.Batch) == 0 || reflect.DeepEqual(g.Batch, w.Batch)) {
						t.Fatalf("%s: node %d results differ:\n auto     %+v\n pipeline %+v", label, i, g, w)
					}
				}
			}
		}
	}
}
