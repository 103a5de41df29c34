package congestedclique

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// TestAutoSingleNode pins AlgorithmAuto on the one-node clique, for every arm
// the planners can reach there, with the census off, charged, and implied by
// a plan cache (second call a cache hit). Route keeps its census: three
// rounds of node 0 talking to itself, then an empty or pipeline arm that
// costs nothing more. Sort charges no census and no round: the lone node's
// local sort is the answer whatever the arm.
func TestAutoSingleNode(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	free := Stats{}
	censusEmpty := Stats{Rounds: 3, MaxEdgeWords: 4, MaxEdgeMessages: 1, TotalMessages: 2, TotalWords: 7}
	censusSelf := Stats{Rounds: 3, MaxEdgeWords: 4, MaxEdgeMessages: 1, TotalMessages: 3, TotalWords: 8}

	routeCases := []struct {
		name     string
		msgs     [][]Message
		strategy RouteStrategy
		want     [][]Message
		stats    Stats // census off
		census   Stats // census charged
	}{
		{"nil", nil, StrategyEmpty, [][]Message{nil}, free, censusEmpty},
		{"empty-row", [][]Message{nil}, StrategyEmpty, [][]Message{nil}, free, censusEmpty},
		{"self", [][]Message{{{Src: 0, Dst: 0, Seq: 7, Payload: 42}}}, StrategyPipeline,
			[][]Message{{{Src: 0, Dst: 0, Seq: 7, Payload: 42}}}, free, censusSelf},
	}
	sortCases := []struct {
		name     string
		values   [][]int64
		strategy SortStrategy
		want     [][]Key
		total    int
	}{
		{"nil", nil, SortStrategyEmpty, [][]Key{nil}, 0},
		{"empty-row", [][]int64{nil}, SortStrategyEmpty, [][]Key{nil}, 0},
		{"one", [][]int64{{5}}, SortStrategyPresorted, [][]Key{{{Value: 5}}}, 1},
	}
	for _, mode := range []struct {
		name   string
		opts   []Option
		census bool
	}{
		{"census-off", nil, false},
		{"census-charged", []Option{WithChargedCensus()}, true},
		{"plan-cache", []Option{WithPlanCache(4)}, true},
	} {
		cl, err := New(1, append([]Option{WithAlgorithm(AlgorithmAuto)}, mode.opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range routeCases {
			want := tc.stats
			if mode.census {
				want = tc.census
			}
			for call := 0; call < 2; call++ {
				label := fmt.Sprintf("%s/route/%s/call=%d", mode.name, tc.name, call)
				res, err := cl.Route(ctx, tc.msgs)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if res.Strategy != tc.strategy || res.Stats != want || !reflect.DeepEqual(res.Delivered, tc.want) {
					t.Errorf("%s: strategy %v stats %+v delivered %v\n want %v %+v %v",
						label, res.Strategy, res.Stats, res.Delivered, tc.strategy, want, tc.want)
				}
			}
		}
		for _, tc := range sortCases {
			for call := 0; call < 2; call++ {
				label := fmt.Sprintf("%s/sort/%s/call=%d", mode.name, tc.name, call)
				res, err := cl.Sort(ctx, tc.values)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if res.Strategy != tc.strategy || res.Stats != free || res.Total != tc.total ||
					!reflect.DeepEqual(res.Batches, tc.want) || !reflect.DeepEqual(res.Starts, []int{0}) {
					t.Errorf("%s: strategy %v stats %+v batches %v starts %v total %d\n want %v %+v %v [0] %d",
						label, res.Strategy, res.Stats, res.Batches, res.Starts, res.Total,
						tc.strategy, free, tc.want, tc.total)
				}
			}
		}
		cl.Close()
	}
}
