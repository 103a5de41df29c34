package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"congestedclique/internal/clique"
)

// sparseTestInstances is the shape catalog the sparse-path parity tests sweep:
// every strategy the sparse executors cover plus the pipeline fallbacks, with
// ragged and inactive rows mixed in.
func sparseTestInstances(n int) map[string][][]Message {
	oneToMany := make([][]Message, n)
	for j := 0; j < 6*min(n, 8); j++ {
		oneToMany[0] = append(oneToMany[0], Message{Src: 0, Dst: 1 + j%4, Seq: j, Payload: clique.Word(j)})
	}
	ragged := make([][]Message, n/2) // rows beyond len(msgs) are empty
	for src := 0; src < len(ragged); src += 3 {
		for p := 0; p < 1+src%3; p++ {
			ragged[src] = append(ragged[src], Message{Src: src, Dst: (src*7 + p) % n, Seq: p, Payload: clique.Word(100*src + p)})
		}
	}
	return map[string][][]Message{
		"empty":       make([][]Message, n),
		"direct":      sparseInstance(n, 2, 1),
		"direct-full": sparseInstance(n, 3, DirectMaxMultiplicity),
		"broadcast":   oneToMany,
		"ragged":      ragged,
		"pipeline":    sparseInstance(n, n, 1),
	}
}

func TestSparseDemandRoundTrip(t *testing.T) {
	t.Parallel()
	const n = 48
	for name, msgs := range sparseTestInstances(n) {
		sd, err := NewSparseDemand(n, msgs)
		if err != nil {
			t.Fatalf("%s: NewSparseDemand: %v", name, err)
		}
		back := sd.Messages()
		for i := 0; i < n; i++ {
			var want []Message
			if i < len(msgs) {
				want = msgs[i]
			}
			if len(want) == 0 && len(back[i]) == 0 {
				continue
			}
			if !reflect.DeepEqual(back[i], want) {
				t.Fatalf("%s: row %d does not round-trip: got %v want %v", name, i, back[i], want)
			}
		}
		total := 0
		for _, row := range msgs {
			total += len(row)
		}
		if sd.Total() != total {
			t.Fatalf("%s: Total = %d, want %d", name, sd.Total(), total)
		}
	}
}

func TestSparseDemandRejectsMalformedRows(t *testing.T) {
	t.Parallel()
	const n = 8
	if _, err := NewSparseDemand(n, [][]Message{{{Src: 1, Dst: 2}}}); err == nil {
		t.Error("foreign Src accepted")
	}
	if _, err := NewSparseDemand(n, [][]Message{{{Src: 0, Dst: n}}}); err == nil {
		t.Error("out-of-range Dst accepted")
	}
}

func TestSparseFingerprintMatchesRouteFingerprint(t *testing.T) {
	t.Parallel()
	const n = 48
	for name, msgs := range sparseTestInstances(n) {
		sd, err := NewSparseDemand(n, msgs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := sd.Fingerprint(), RouteFingerprint(n, msgs); got != want {
			t.Errorf("%s: sparse fingerprint %v != dense %v", name, got, want)
		}
	}
}

func TestPlanRouteSparseMatchesPlanRoute(t *testing.T) {
	t.Parallel()
	for _, n := range []int{8, 48, 90} {
		for name, msgs := range sparseTestInstances(n) {
			sd, err := NewSparseDemand(n, msgs)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, name, err)
			}
			got := PlanRouteSparse(sd)
			want := PlanRoute(n, msgs)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("n=%d %s: sparse plan %+v\n  != dense plan %+v", n, name, got, want)
			}
		}
	}
}

// runDenseAutoRoute executes AutoRoute on the blocking scheduler and returns
// the per-node outputs and run metrics.
func runDenseAutoRoute(t *testing.T, n int, msgs [][]Message, plan RoutePlan) ([][]Message, clique.Metrics) {
	t.Helper()
	nw, err := clique.New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	outs := make([][]Message, n)
	err = nw.Run(func(nd *clique.Node) error {
		var row []Message
		if nd.ID() < len(msgs) {
			row = msgs[nd.ID()]
		}
		out, rErr := AutoRoute(nd, row, plan)
		if rErr != nil {
			return rErr
		}
		outs[nd.ID()] = out
		return nil
	})
	if err != nil {
		t.Fatalf("dense AutoRoute: %v", err)
	}
	return outs, nw.Metrics()
}

// runSparseRoute executes the sparse step-mode run and returns the per-node
// outputs and run metrics.
func runSparseRoute(t *testing.T, sd *SparseDemand, plan RoutePlan) ([][]Message, clique.Metrics) {
	t.Helper()
	n := sd.N()
	nw, err := clique.New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	run, err := NewSparseRouteRun(sd, plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.RunRounds(run.Step); err != nil {
		t.Fatalf("sparse route run: %v", err)
	}
	outs := make([][]Message, n)
	for i := 0; i < n; i++ {
		outs[i] = run.Output(i)
	}
	return outs, nw.Metrics()
}

func TestSparseRouteRunMatchesDense(t *testing.T) {
	t.Parallel()
	for _, n := range []int{8, 48, 90} {
		for name, msgs := range sparseTestInstances(n) {
			for _, census := range []bool{false, true} {
				sd, err := NewSparseDemand(n, msgs)
				if err != nil {
					t.Fatalf("n=%d %s: %v", n, name, err)
				}
				plan := PlanRouteSparse(sd)
				if !SparseStepCapable(plan.Strategy) {
					continue // pipeline arm: blocking scheduler only
				}
				plan.Census = census
				if census {
					plan.CensusHasFP = true
					plan.CensusFP = sd.Fingerprint().Hash
				}
				label := fmt.Sprintf("n=%d/%s/census=%v", n, name, census)
				wantOut, wantM := runDenseAutoRoute(t, n, msgs, plan)
				gotOut, gotM := runSparseRoute(t, sd, plan)
				for i := 0; i < n; i++ {
					if len(wantOut[i]) == 0 && len(gotOut[i]) == 0 {
						continue
					}
					if !reflect.DeepEqual(gotOut[i], wantOut[i]) {
						t.Fatalf("%s: node %d outputs differ:\n sparse %v\n dense  %v", label, i, gotOut[i], wantOut[i])
					}
				}
				if gotM.Rounds != wantM.Rounds || gotM.TotalWords != wantM.TotalWords ||
					gotM.TotalMessages != wantM.TotalMessages ||
					gotM.MaxEdgeWords != wantM.MaxEdgeWords || gotM.MaxEdgeMessages != wantM.MaxEdgeMessages {
					t.Errorf("%s: metrics differ:\n sparse %+v\n dense  %+v", label, gotM, wantM)
				}
			}
		}
	}
}

// presortedKeysInstance builds rows that partition the global order: node i
// holds cnt(i) consecutive values, ascending across nodes.
func presortedKeysInstance(n int) [][]Key {
	keys := make([][]Key, n)
	v := int64(0)
	for i := 0; i < n; i++ {
		cnt := (i*7)%5 + 1
		if i%11 == 0 {
			cnt = 0 // inactive holders stay covered
		}
		for j := 0; j < cnt; j++ {
			keys[i] = append(keys[i], Key{Value: v, Origin: i, Seq: j})
			v += int64(1 + (i+j)%3)
		}
	}
	return keys
}

// runDenseAutoSort executes AutoSort on the blocking scheduler.
func runDenseAutoSort(t *testing.T, n int, keys [][]Key, plan SortPlan) ([]*SortResult, clique.Metrics) {
	t.Helper()
	nw, err := clique.New(n)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	results := make([]*SortResult, n)
	err = nw.Run(func(nd *clique.Node) error {
		var row []Key
		if nd.ID() < len(keys) {
			row = keys[nd.ID()]
		}
		res, sErr := AutoSort(nd, row, plan)
		if sErr != nil {
			return sErr
		}
		results[nd.ID()] = res
		return nil
	})
	if err != nil {
		t.Fatalf("dense AutoSort: %v", err)
	}
	return results, nw.Metrics()
}

func TestSparseSortRunMatchesDense(t *testing.T) {
	t.Parallel()
	for _, n := range []int{8, 48, 90} {
		for _, tc := range []struct {
			name string
			keys [][]Key
		}{
			{"empty", make([][]Key, n)},
			{"presorted", presortedKeysInstance(n)},
		} {
			for _, census := range []bool{false, true} {
				plan := PlanSort(n, tc.keys)
				if !SparseSortStepCapable(plan.Strategy) {
					t.Fatalf("n=%d %s: plan strategy %v not step-capable", n, tc.name, plan.Strategy)
				}
				plan.Census = census
				if census {
					if fp, ok := SortFingerprint(n, tc.keys); ok {
						plan.CensusHasFP = true
						plan.CensusFP = fp.Hash
					}
				}
				label := fmt.Sprintf("n=%d/%s/census=%v", n, tc.name, census)

				want, wantM := runDenseAutoSort(t, n, tc.keys, plan)

				nw, err := clique.New(n)
				if err != nil {
					t.Fatal(err)
				}
				run, err := NewSparseSortRun(n, tc.keys, plan)
				if err != nil {
					nw.Close()
					t.Fatal(err)
				}
				if err := nw.RunRounds(run.Step); err != nil {
					nw.Close()
					t.Fatalf("%s: sparse sort run: %v", label, err)
				}
				gotM := nw.Metrics()
				for i := 0; i < n; i++ {
					got := run.Result(i)
					if got == nil {
						t.Fatalf("%s: node %d has no result", label, i)
					}
					if got.Start != want[i].Start || got.Total != want[i].Total ||
						!(len(got.Batch) == 0 && len(want[i].Batch) == 0 || reflect.DeepEqual(got.Batch, want[i].Batch)) {
						t.Fatalf("%s: node %d results differ:\n sparse %+v\n dense  %+v", label, i, got, want[i])
					}
				}
				nw.Close()
				if gotM.Rounds != wantM.Rounds || gotM.TotalWords != wantM.TotalWords ||
					gotM.TotalMessages != wantM.TotalMessages ||
					gotM.MaxEdgeWords != wantM.MaxEdgeWords || gotM.MaxEdgeMessages != wantM.MaxEdgeMessages {
					t.Errorf("%s: metrics differ:\n sparse %+v\n dense  %+v", label, gotM, wantM)
				}
			}
		}
	}
}

// flatOf encodes a per-sender packet list as the engine's FlatInbox.
func flatOf(in clique.Inbox) clique.FlatInbox {
	var flat clique.FlatInbox
	for from, ps := range in {
		for _, p := range ps {
			flat = append(flat, clique.Word(from), clique.Word(len(p)))
			flat = append(flat, p...)
		}
	}
	return flat
}

// TestFlatCensusDecodeMatchesDense pins the one-sweep census decode against
// the per-sender rule of the dense inbox: over random inboxes with missing,
// duplicated and malformed aggregates, eachAggregate names the same first
// sender lacking exactly one well-formed packet and folds the same packets,
// soleFrom agrees with "exactly one packet from the sender", and the census
// steps report the blocking census's error strings.
func TestFlatCensusDecodeMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(6)
		width := 2 + rng.Intn(3)
		in := make(clique.Inbox, n)
		for from := range in {
			k := 1
			if rng.Intn(4) == 0 {
				k = rng.Intn(3)
			}
			for j := 0; j < k; j++ {
				l := width
				if rng.Intn(8) == 0 {
					l = rng.Intn(width + 2)
				}
				p := make(clique.Packet, l)
				for w := range p {
					p[w] = clique.Word(rng.Intn(100))
				}
				in[from] = append(in[from], p)
			}
		}
		flat := flatOf(in)

		wantMissing := -1
		var wantFolded []clique.Packet
		for from := 0; from < n; from++ {
			if len(in[from]) != 1 || len(in[from][0]) != width {
				wantMissing = from
				break
			}
			wantFolded = append(wantFolded, in[from][0])
		}
		var folded []clique.Packet
		missing := eachAggregate(flat, n, width, func(p clique.Packet) { folded = append(folded, p) })
		if missing != wantMissing {
			t.Fatalf("trial %d: eachAggregate names sender %d, dense rule %d (inbox %v)", trial, missing, wantMissing, in)
		}
		if missing < 0 && !reflect.DeepEqual(folded, wantFolded) {
			t.Fatalf("trial %d: folded %v, want %v", trial, folded, wantFolded)
		}
		for from := 0; from < n; from++ {
			var want clique.Packet
			if len(in[from]) == 1 {
				want = in[from][0]
			}
			if got := soleFrom(flat, from); (got == nil) != (want == nil) || !slices.Equal(got, want) {
				t.Fatalf("trial %d: soleFrom(%d) = %v, want %v", trial, from, got, want)
			}
		}
	}

	route := &SparseRouteRun{n: 3, nodes: make([]sparseRouteNode, 3)}
	err := route.censusStep(&clique.Node{}, 2, flatOf(clique.Inbox{{{1, 2, 3, 4}}, nil, {{1, 2, 3, 4}}}))
	if want := "core: census: node 0 missing aggregate from node 1"; err == nil || err.Error() != want {
		t.Errorf("route census error %v, want %q", err, want)
	}
	sorting := &SparseSortRun{n: 3}
	err = sorting.censusStep(&clique.Node{}, 1, flatOf(clique.Inbox{{{1, 2}}, {{1, 2}, {3, 4}}, {{1, 2}}}))
	if want := "core: sort census: node 0 missing aggregate from node 1"; err == nil || err.Error() != want {
		t.Errorf("sort census error %v, want %q", err, want)
	}
	err = sorting.censusVerify(&clique.Node{}, flatOf(clique.Inbox{{{1, 2}, {1, 2}}}))
	if want := "core: sort census: node 0 missing verdict broadcast"; err == nil || err.Error() != want {
		t.Errorf("sort verdict error %v, want %q", err, want)
	}
}
