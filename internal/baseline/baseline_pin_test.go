package baseline

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"congestedclique/internal/clique"
	"congestedclique/internal/core"
	"congestedclique/internal/verify"
	"congestedclique/internal/workload"
)

// baselinePin is the exact outcome of one baseline run: a digest of every
// node's output and the run's traffic counters.
type baselinePin struct {
	digest       uint64
	rounds       int
	messages     int64
	words        int64
	maxEdgeWords int
}

// addWords folds a sequence of integers into the digest h.
func addWords(h hash.Hash64, vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

func pinOf(digest uint64, m clique.Metrics) baselinePin {
	return baselinePin{digest: digest, rounds: m.Rounds, messages: m.TotalMessages, words: m.TotalWords, maxEdgeWords: m.MaxEdgeWords}
}

// pinRouting runs route on inst and returns its pin after checking the
// delivery against the instance.
func pinRouting(t *testing.T, inst *workload.RoutingInstance, route func(clique.Exchanger, []core.Message) ([]core.Message, error)) baselinePin {
	t.Helper()
	nw, err := clique.New(inst.N)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	results := make([][]core.Message, inst.N)
	if err := nw.Run(func(nd *clique.Node) error {
		out, rErr := route(nd, inst.Msgs[nd.ID()])
		results[nd.ID()] = out
		return rErr
	}); err != nil {
		t.Fatal(err)
	}
	if err := verify.Routing(inst.Msgs, results); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, out := range results {
		addWords(h, int64(len(out)))
		for _, m := range out {
			addWords(h, int64(m.Src), int64(m.Dst), int64(m.Seq), m.Payload)
		}
	}
	return pinOf(h.Sum64(), nw.Metrics())
}

// pinSorting runs RandomizedSampleSort on inst and returns its pin after
// checking the result against the instance.
func pinSorting(t *testing.T, inst *workload.SortingInstance, seed int64) baselinePin {
	t.Helper()
	nw, err := clique.New(inst.N)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	results := make([]*core.SortResult, inst.N)
	if err := nw.Run(func(nd *clique.Node) error {
		res, sErr := RandomizedSampleSort(nd, inst.Keys[nd.ID()], seed)
		results[nd.ID()] = res
		return sErr
	}); err != nil {
		t.Fatal(err)
	}
	if err := verify.Sorting(inst.Keys, results); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, res := range results {
		addWords(h, int64(res.Start), int64(res.Total), int64(len(res.Batch)))
		for _, k := range res.Batch {
			addWords(h, k.Value, int64(k.Origin), int64(k.Seq))
		}
	}
	return pinOf(h.Sum64(), nw.Metrics())
}

// TestBaselinesPinned fixes the exact outputs and traffic of every baseline
// on two seeds each, so a change to the engine's receive path that reorders
// or loses records shows up here and not only as a looser round bound.
func TestBaselinesPinned(t *testing.T) {
	t.Parallel()
	const n = 16
	cases := []struct {
		name string
		run  func(t *testing.T) baselinePin
		want baselinePin
	}{
		{"naive-direct/seed1", func(t *testing.T) baselinePin {
			return pinRouting(t, mustRouting(t, n, workload.RoutingUniform, 1), NaiveDirectRoute)
		}, baselinePin{0xe5632cfe8604243b, 6, 512, 1024, 3}},
		{"naive-direct/seed2", func(t *testing.T) baselinePin {
			return pinRouting(t, mustRouting(t, n, workload.RoutingSkewed, 2), NaiveDirectRoute)
		}, baselinePin{0x707a8ec412713ca9, 17, 512, 1024, 3}},
		{"randomized-route/seed1", func(t *testing.T) baselinePin {
			return pinRouting(t, mustRouting(t, n, workload.RoutingUniform, 1), func(ex clique.Exchanger, msgs []core.Message) ([]core.Message, error) {
				return RandomizedRoute(ex, msgs, 11)
			})
		}, baselinePin{0xe5632cfe8604243b, 5, 768, 2304, 4}},
		{"randomized-route/seed2", func(t *testing.T) baselinePin {
			return pinRouting(t, mustRouting(t, n, workload.RoutingSetAdversarial, 2), func(ex clique.Exchanger, msgs []core.Message) ([]core.Message, error) {
				return RandomizedRoute(ex, msgs, 22)
			})
		}, baselinePin{0x484b82a7676a3c91, 6, 768, 2304, 4}},
		{"sample-sort/seed1", func(t *testing.T) baselinePin {
			return pinSorting(t, mustSorting(t, n, workload.KeysUniform, 1), 11)
		}, baselinePin{0x7a4adf981661de8e, 11, 2624, 7872, 12}},
		{"sample-sort/seed2", func(t *testing.T) baselinePin {
			return pinSorting(t, mustSorting(t, n, workload.KeysDuplicateHeavy, 2), 22)
		}, baselinePin{0x30f7999d4166c85c, 12, 2624, 7872, 12}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.run(t); got != tc.want {
				t.Errorf("got %#v, want %#v", got, tc.want)
			}
		})
	}
}

func mustRouting(t *testing.T, n int, pattern workload.RoutingPattern, seed int64) *workload.RoutingInstance {
	t.Helper()
	inst, err := workload.NewRoutingInstance(n, n, pattern, seed)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func mustSorting(t *testing.T, n int, dist workload.KeyDistribution, seed int64) *workload.SortingInstance {
	t.Helper()
	inst, err := workload.NewSortingInstance(n, n, dist, seed)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}
