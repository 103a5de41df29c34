package core

import (
	"fmt"

	"congestedclique/internal/clique"
)

// This file implements the planner census as a real charged protocol: the
// O(1)-round aggregation that, in a genuine congested clique, every
// AlgorithmAuto operation would spend before dispatching on a plan. By
// default the simulator computes the plan centrally and charges nothing
// (the goldens stay bit-identical); with WithChargedCensus — or implicitly
// with WithPlanCache, whose hit-rate claims must be net of planning cost —
// the census runs on the wire, its words and rounds land in the operation's
// Stats, and every node verifies the distributed verdict against the plan it
// was handed.
//
// Route census (3 rounds):
//
//	R1  transpose      node i -> node j: i's message count for j (1 word,
//	                   busy pairs only). Afterwards every node knows its
//	                   receive total; its send total, per-pair row maximum
//	                   and order-sensitive row hash are local.
//	R2  aggregate      node i -> node 0: [sendTotal, recvTotal, rowPairMax,
//	                   rowHash] (4 words).
//	R3  decide+spread  node 0 -> all: [strategy, relayRounds, fingerprint]
//	                   (3 words). Node 0 recomputes the dispatch from the
//	                   aggregates via routeStrategyFromCensus — the same
//	                   decision procedure as PlanRoute — and folds the row
//	                   hashes in node order into the instance fingerprint
//	                   (the identical fold RouteFingerprint performs
//	                   host-side). Every node checks the broadcast strategy
//	                   against its plan and, when the plan carries a cache
//	                   fingerprint, the broadcast fingerprint against it.
//
// One quantity travels on faith rather than being re-derived: the broadcast
// path's relay-round count is a function of the full (relay, destination)
// distribution, not of any O(1) per-node aggregate, so node 0 echoes the
// plan's value into the decision instead of recomputing it. Everything else
// of the verdict is derived from the wire.
//
// Sort census (2 rounds): the sorting verdict depends on value distribution
// properties (distinct count, duplicity, partition boundaries) that have no
// O(1)-word per-node summary, so the charged sort census is a fingerprint
// agreement: nodes send (count, row hash) to node 0, which folds the cache
// fingerprint and broadcasts it with the strategy echoed from the plan;
// every node verifies both. The costs of a full distributed verdict would be
// the §6.3 machinery itself — the honesty note in planner_sort.go spells
// this out.
//
// Each census is written once, as step code: census round r is one call
// with the inbox of round r-1, and the verdict check reads the inbox of the
// last census round. The step executors (sparse_route.go, sparse_sort.go)
// call it from their own steps; the blocking pipeline and small-domain arms
// run it through driveCensus over Exchange. Both schedulers therefore
// put the same words on the same edges in the same rounds and fail with the
// same errors.

// Census round and word costs, referenced by tests and docs.
const (
	// RouteCensusRounds is the round cost the charged route census adds to
	// every AlgorithmAuto Route call.
	RouteCensusRounds = 3
	// SortCensusRounds is the round cost of the charged sort census.
	SortCensusRounds = 2
)

// routeStrategyFromCensus replays PlanRoute's dispatch decision from the
// census aggregates. PlanRoute and this function must agree on every
// instance — a test sweeps the workload catalog to pin that — so the
// distributed verdict is the plan's verdict whenever the plan matches the
// instance.
func routeStrategyFromCensus(n, total, maxPairMult, activeSources, relayRounds int) RouteStrategy {
	switch {
	case total == 0:
		return StrategyEmpty
	case total > FastPathMaxTotal(n):
		return StrategyPipeline
	case maxPairMult <= DirectMaxMultiplicity:
		return StrategyDirect
	case activeSources > BroadcastSourceCap(n):
		return StrategyPipeline
	case 1+relayRounds <= BroadcastMaxRounds:
		return StrategyBroadcast
	default:
		return StrategyPipeline
	}
}

// driveCensus runs a census on the blocking scheduler: rounds exchanges over
// Exchange, each preceded by that round's step, then the verdict check
// on the last inbox. label prefixes engine failures of the exchanges.
func driveCensus(ex clique.Exchanger, label string, rounds int,
	step func(round int, inbox clique.FlatInbox) error, verify func(inbox clique.FlatInbox) error) error {
	var inbox clique.FlatInbox
	for round := 0; round < rounds; round++ {
		if err := step(round, inbox); err != nil {
			return err
		}
		var err error
		if inbox, err = ex.Exchange(); err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
	}
	return verify(inbox)
}

// routeCensusStep executes route census round 0, 1 or 2 at one node.
func routeCensusStep(ex clique.Exchanger, plan *RoutePlan, row routeRow, round int, inbox clique.FlatInbox) error {
	switch round {
	case 0:
		// R1: transpose the demand counts, one word per busy destination.
		// One backing buffer for all sends: the engine copies payloads at
		// delivery, and the exact pre-allocation means append never
		// reallocates under the views handed to Send.
		buf := make([]clique.Word, 0, len(row.msgs))
		row.eachDst(func(dst int, run []int32) {
			buf = append(buf, clique.Word(len(run)))
			ex.Send(dst, clique.Packet(buf[len(buf)-1:]))
		})
	case 1:
		// Decode R1, report aggregates to node 0. The row hash is the
		// order-sensitive FNV fold over this node's destination sequence —
		// the same function the host-side fingerprint uses per row.
		recvTotal := 0
		for _, p := range inbox.Records() {
			if len(p) < 1 {
				return fmt.Errorf("core: census: malformed count message")
			}
			recvTotal += int(p[0])
		}
		rowPairMax := 0
		row.eachDst(func(_ int, run []int32) { rowPairMax = max(rowPairMax, len(run)) })
		ex.Send(0, clique.Packet{
			clique.Word(len(row.msgs)),
			clique.Word(recvTotal),
			clique.Word(rowPairMax),
			clique.Word(routeRowHash(row.msgs)),
		})
	case 2:
		// Node 0 folds the fingerprint, recomputes the dispatch and
		// broadcasts the verdict.
		if ex.ID() != 0 {
			return nil
		}
		n := plan.N
		total, maxPair, activeSources := 0, 0, 0
		h := uint64(fnvOffset64)
		missing := eachAggregate(inbox, n, 4, func(p clique.Packet) {
			sendTotal := int(p[0])
			total += sendTotal
			if sendTotal > 0 {
				activeSources++
			}
			maxPair = max(maxPair, int(p[2]))
			h = foldRows(h, sendTotal, uint64(p[3]))
		})
		if missing >= 0 {
			return fmt.Errorf("core: census: node 0 missing aggregate from node %d", missing)
		}
		strategy := routeStrategyFromCensus(n, total, maxPair, activeSources, plan.relayRoundsCensus)
		verdict := clique.Packet{clique.Word(strategy), clique.Word(plan.relayRoundsCensus), clique.Word(h)}
		for to := 0; to < n; to++ {
			ex.Send(to, verdict)
		}
	}
	return nil
}

// routeCensusVerify checks node id's copy of the broadcast verdict against
// the plan. Any disagreement — strategy, relay rounds, or cache fingerprint
// — is an error: the plan does not match the instance the nodes hold.
func routeCensusVerify(id int, plan *RoutePlan, inbox clique.FlatInbox) error {
	verdict := soleFrom(inbox, 0)
	if len(verdict) != 3 {
		return fmt.Errorf("core: census: node %d missing verdict broadcast", id)
	}
	if RouteStrategy(verdict[0]) != plan.Strategy {
		return fmt.Errorf("core: census: distributed verdict %v disagrees with plan %v at node %d",
			RouteStrategy(verdict[0]), plan.Strategy, id)
	}
	if int(verdict[1]) != plan.relayRoundsCensus {
		return fmt.Errorf("core: census: relay rounds %d disagree with plan %d", int(verdict[1]), plan.relayRoundsCensus)
	}
	if plan.CensusHasFP && uint64(verdict[2]) != plan.CensusFP {
		return fmt.Errorf("core: census: instance fingerprint %x disagrees with plan fingerprint %x at node %d",
			uint64(verdict[2]), plan.CensusFP, id)
	}
	return nil
}

// sortCensusStep executes sort census round 0 or 1 at one node holding row.
func sortCensusStep(ex clique.Exchanger, plan *SortPlan, row []Key, round int, inbox clique.FlatInbox) error {
	switch round {
	case 0:
		// R1: every node reports (count, row hash) to node 0.
		ex.Send(0, clique.Packet{clique.Word(len(row)), clique.Word(sortRowHash(row))})
	case 1:
		// R2: node 0 folds and broadcasts [strategy, fingerprint].
		if ex.ID() != 0 {
			return nil
		}
		n := plan.N
		h := uint64(fnvOffset64)
		missing := eachAggregate(inbox, n, 2, func(p clique.Packet) {
			h = foldRows(h, int(p[0]), uint64(p[1]))
		})
		if missing >= 0 {
			return fmt.Errorf("core: sort census: node 0 missing aggregate from node %d", missing)
		}
		verdict := clique.Packet{clique.Word(plan.Strategy), clique.Word(h)}
		for to := 0; to < n; to++ {
			ex.Send(to, verdict)
		}
	}
	return nil
}

// sortCensusVerify checks node id's copy of the broadcast sort verdict
// against the plan.
func sortCensusVerify(id int, plan *SortPlan, inbox clique.FlatInbox) error {
	verdict := soleFrom(inbox, 0)
	if len(verdict) != 2 {
		return fmt.Errorf("core: sort census: node %d missing verdict broadcast", id)
	}
	if SortStrategy(verdict[0]) != plan.Strategy {
		return fmt.Errorf("core: sort census: broadcast verdict %v disagrees with plan %v at node %d",
			SortStrategy(verdict[0]), plan.Strategy, id)
	}
	if plan.CensusHasFP && uint64(verdict[1]) != plan.CensusFP {
		return fmt.Errorf("core: sort census: instance fingerprint %x disagrees with plan fingerprint %x at node %d",
			uint64(verdict[1]), plan.CensusFP, id)
	}
	return nil
}

// eachAggregate decodes a census aggregation round at node 0: every sender
// 0..n-1 must have sent exactly one packet of width words, and fold sees
// those packets in ascending sender order. It returns the first sender
// without exactly one well-formed packet, or -1 when every sender has one.
// A single sweep over the records suffices because they arrive in sender
// order: a record from beyond the next expected sender means that sender
// sent nothing, and a second record from the last accepted sender means it
// sent two.
func eachAggregate(inbox clique.FlatInbox, n, width int, fold func(p clique.Packet)) int {
	next := 0
	for from, p := range inbox.Records() {
		if from != next || len(p) != width {
			return min(from, next)
		}
		fold(p)
		next++
	}
	if next < n {
		return next
	}
	return -1
}

// soleFrom returns the packet node from sent this round, or nil unless it
// sent exactly one.
func soleFrom(inbox clique.FlatInbox, from int) clique.Packet {
	var sole clique.Packet
	count := 0
	for f, p := range inbox.Records() {
		if f > from {
			break
		}
		if f == from {
			sole = p
			count++
		}
	}
	if count != 1 {
		return nil
	}
	return sole
}
