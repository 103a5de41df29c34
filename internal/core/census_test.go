package core

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"congestedclique/internal/clique"
)

// flatOf encodes a per-sender packet list as the engine's FlatInbox.
func flatOf(in [][]clique.Packet) clique.FlatInbox {
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
// steps report the census's error strings.
func TestFlatCensusDecodeMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(6)
		width := 2 + rng.Intn(3)
		in := make([][]clique.Packet, n)
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

	err := routeCensusStep(&clique.Node{}, &RoutePlan{N: 3}, routeRow{}, 2, flatOf([][]clique.Packet{{{1, 2, 3, 4}}, nil, {{1, 2, 3, 4}}}))
	if want := "core: census: node 0 missing aggregate from node 1"; err == nil || err.Error() != want {
		t.Errorf("route census error %v, want %q", err, want)
	}
	sortPlan := &SortPlan{N: 3}
	err = sortCensusStep(&clique.Node{}, sortPlan, nil, 1, flatOf([][]clique.Packet{{{1, 2}}, {{1, 2}, {3, 4}}, {{1, 2}}}))
	if want := "core: sort census: node 0 missing aggregate from node 1"; err == nil || err.Error() != want {
		t.Errorf("sort census error %v, want %q", err, want)
	}
	err = sortCensusVerify(0, sortPlan, flatOf([][]clique.Packet{{{1, 2}, {1, 2}}}))
	if want := "core: sort census: node 0 missing verdict broadcast"; err == nil || err.Error() != want {
		t.Errorf("sort verdict error %v, want %q", err, want)
	}
}

// TestBlockingCensusMismatch drives the census over Exchange on the
// blocking arms — the route pipeline and the small-domain sort — with a
// tampered plan, and pins the exact errors the census returned when it was
// written against Exchange: node 0's diagnosis wins, naming the wire
// fingerprint and the plan's.
func TestBlockingCensusMismatch(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	routeErr := func(n int, msgs [][]Message, plan RoutePlan) error {
		nw, err := clique.New(n)
		if err != nil {
			t.Fatal(err)
		}
		defer nw.Close()
		return AutoRoute(ctx, nw, msgs, plan, make([][]Message, n))
	}

	const n = 25
	full := buildRoutingInstance(n, n, 99)
	plan := PlanRoute(n, full)
	if plan.Strategy != StrategyPipeline {
		t.Fatalf("full-load instance planned %v", plan.Strategy)
	}
	plan.Census, plan.CensusHasFP, plan.CensusFP = true, true, RouteFingerprint(n, full).Hash^1
	err := routeErr(n, full, plan)
	if want := "core: census: instance fingerprint 160d4e3f5cff04ed disagrees with plan fingerprint 160d4e3f5cff04ec at node 0"; err == nil || err.Error() != want {
		t.Errorf("tampered route fingerprint: error %v, want %q", err, want)
	}

	direct := sparseInstance(n, 2, 1)
	plan = PlanRoute(n, direct)
	plan.Strategy, plan.Census = StrategyPipeline, true // a direct instance forced onto the pipeline
	err = routeErr(n, direct, plan)
	if want := "core: census: distributed verdict direct disagrees with plan pipeline at node 0"; err == nil || err.Error() != want {
		t.Errorf("tampered route strategy: error %v, want %q", err, want)
	}

	const m = 256
	keys := smallDomainKeys(m, 3, 3)
	sortPlan := PlanSort(m, keys)
	if sortPlan.Strategy != SortStrategySmallDomain {
		t.Fatalf("small-domain instance planned %v", sortPlan.Strategy)
	}
	fp, _ := SortFingerprint(m, keys)
	sortPlan.Census, sortPlan.CensusHasFP, sortPlan.CensusFP = true, true, fp.Hash^1
	nw, err := clique.New(m)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	err = AutoSort(ctx, nw, keys, sortPlan, make([]*SortResult, m))
	if want := "core: sort census: instance fingerprint ab487ab88f35c2a5 disagrees with plan fingerprint ab487ab88f35c2a4 at node 0"; err == nil || err.Error() != want {
		t.Errorf("tampered sort fingerprint: error %v, want %q", err, want)
	}
}
