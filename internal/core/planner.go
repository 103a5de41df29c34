package core

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"congestedclique/internal/clique"
)

// This file implements the demand-aware routing planner. The paper's
// pipeline (Theorem 3.7) is engineered for the full-load regime — every node
// sending and receiving up to n messages — and pays a fixed 16-round
// schedule plus announcement traffic regardless of how much demand there
// actually is. The planner classifies a routing instance before committing
// to that pipeline and dispatches to the cheapest strategy that is still
// correct for the instance's shape:
//
//   - StrategyEmpty: no messages at all — zero rounds, zero words.
//   - StrategyDirect: every (source, destination) pair's load fits one
//     frame (at most DirectFrameWords words), so each pair's messages
//     travel as one frame straight over their own edge in a single round.
//     Unlike the naive-direct baseline this path spends no round agreeing
//     on a schedule: the plan already guarantees the frame bound.
//   - StrategyBroadcast: one-to-many demand (few active sources). Each
//     source deals its messages round-robin across all n nodes in one
//     scatter round, then every relay forwards what it holds to the final
//     destinations; the plan pre-computes the number of delivery rounds.
//   - StrategyPipeline: everything else runs the paper's deterministic
//     pipeline unchanged — stats are bit-identical to calling Route
//     directly, which the stats-invariant goldens pin.
//
// The fast paths are gated on the sub-full-load regime (see
// FastPathMaxTotal): at full balanced load the pipeline is the paper's
// design point and the quantity this repository measures, so the planner
// deliberately leaves it in charge there even when a one-round direct send
// would be legal (for example a full-load permutation instance).
//
// Honesty note on the model: PlanRoute runs centrally, over the instance the
// simulator already holds. In a real congested clique the same census is an
// O(1)-round aggregation; by default the simulator does not charge those
// words, exactly as it does not charge the deterministic schedule
// computations all nodes perform locally. Since PR 9 the census exists as a
// real charged protocol (census.go, armed by WithChargedCensus or implied by
// WithPlanCache): three rounds on the wire that recompute the strategy
// verdict distributedly and verify it against the plan, so planner and cache
// wins can be reported net of planning cost. The plan remains a pure
// function of the instance, so every node dispatching on it agrees on the
// strategy and the round count.

// RouteStrategy identifies the delivery strategy the demand-aware planner
// selected for a routing instance.
type RouteStrategy int

const (
	// StrategyPipeline is the paper's full Theorem 3.7 balancing pipeline.
	StrategyPipeline RouteStrategy = iota + 1
	// StrategyDirect delivers every message over its own source-destination
	// edge, one frame per busy edge, in a single round.
	StrategyDirect
	// StrategyBroadcast scatters the messages of few sources across all
	// nodes in one round and delivers from the relays.
	StrategyBroadcast
	// StrategyEmpty is the degenerate no-traffic instance: zero rounds.
	StrategyEmpty
)

// String returns the strategy name as used in scenario tables and logs.
func (s RouteStrategy) String() string {
	switch s {
	case StrategyPipeline:
		return "pipeline"
	case StrategyDirect:
		return "direct"
	case StrategyBroadcast:
		return "broadcast"
	case StrategyEmpty:
		return "empty"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Planner thresholds. They are exported so tests and documentation state the
// dispatch rule in terms of named constants rather than magic numbers.
const (
	// directWordsPerMessage is the wire cost of one direct-path message:
	// [seq, payload] (the source is implied by the edge).
	directWordsPerMessage = 2
	// relayWordsPerMessage is the wire cost of one broadcast-path message:
	// [dst, seq, payload] on the scatter hop, [src, seq, payload] on the
	// delivery hop.
	relayWordsPerMessage = 3
	// DirectFrameWords is the per-edge per-round word budget the direct path
	// must fit: a small constant, comparable to the O(log n)-bit model
	// message and to the pipeline's own observed MaxEdgeWords.
	DirectFrameWords = 8
	// DirectMaxMultiplicity is the largest per-(source,destination) message
	// multiplicity the direct path accepts: a pair's messages travel as one
	// frame, so DirectMaxMultiplicity messages of directWordsPerMessage
	// words fill the DirectFrameWords edge budget of the single round.
	DirectMaxMultiplicity = DirectFrameWords / directWordsPerMessage
	// BroadcastMaxRounds caps the broadcast path's total rounds (one scatter
	// round plus the delivery rounds); beyond it the pipeline's fixed 16
	// rounds win.
	BroadcastMaxRounds = 8
)

// FastPathMaxTotal is the demand-volume gate of the planner: instances with
// more than n²/4 total messages are the full-load regime the Theorem 3.7
// pipeline is designed (and measured) for, and are never diverted to a fast
// path.
func FastPathMaxTotal(n int) int { return n * n / 4 }

// BroadcastSourceCap is the one-to-many gate: the broadcast path is
// considered only when at most max(1, n/8) nodes hold messages.
func BroadcastSourceCap(n int) int {
	if n < 8 {
		return 1
	}
	return n / 8
}

// RoutePlan is the planner's verdict for one routing instance: the census it
// classified and the strategy every node dispatches on. A plan is a pure
// function of the instance (PlanRoute), so all nodes executing it agree on
// the communication schedule without exchanging a word.
type RoutePlan struct {
	// N is the clique size the plan was computed for.
	N int
	// Strategy is the selected delivery strategy.
	Strategy RouteStrategy
	// Reason is a human-readable one-liner explaining the dispatch (surfaced
	// by cmd/cliquescen).
	Reason string

	// TotalMessages is the number of messages in the instance.
	TotalMessages int
	// MaxSendLoad and MaxRecvLoad are the largest per-node send and receive
	// loads.
	MaxSendLoad int
	MaxRecvLoad int
	// ActiveSources and ActiveSinks count nodes that send, respectively
	// receive, at least one message.
	ActiveSources int
	ActiveSinks   int
	// MaxPairMultiplicity is the largest number of messages sharing one
	// ordered (source, destination) pair. It is only computed when the
	// instance passes the FastPathMaxTotal volume gate (0 otherwise): above
	// the gate the strategy is the pipeline regardless.
	MaxPairMultiplicity int

	// RelayRounds is the broadcast path's delivery round count (after the
	// one scatter round); set only when Strategy == StrategyBroadcast.
	RelayRounds int

	// relayRoundsCensus is the scatter depth the dispatch decision consumed
	// (set whenever planRelayRounds ran, even when the pipeline won); the
	// charged census broadcasts it so its distributed decision replays
	// PlanRoute's exactly.
	relayRoundsCensus int

	// Census arms the charged census protocol (census.go) for this
	// execution: AutoRoute spends its rounds and words on the wire before
	// the strategy's own. CensusHasFP additionally carries the plan-cache
	// fingerprint for distributed agreement; both are per-run execution
	// state, never part of a cached verdict.
	Census      bool
	CensusHasFP bool
	CensusFP    uint64

	// Sched is a validated cached announcement schedule to execute instead
	// of the pipeline's announcement exchanges; Capture is an empty schedule
	// to record them into. At most one is set, only for pipeline dispatch,
	// and only by the session's plan-cache layer.
	Sched   *RouteSchedule
	Capture *RouteSchedule
}

// Rounds returns the number of communication rounds the plan's strategy will
// use, or -1 for the pipeline (whose round count Route reports itself).
func (p RoutePlan) Rounds() int {
	switch p.Strategy {
	case StrategyEmpty:
		return 0
	case StrategyDirect:
		return 1
	case StrategyBroadcast:
		return 1 + p.RelayRounds
	default:
		return -1
	}
}

// plannerScratch is the reusable census scratch of PlanRoute: a receive-load
// slice and a pair-key slice (sorted to count multiplicities without a map),
// recycled through a process-wide pool so planning every AlgorithmAuto call
// allocates nothing in steady state — the same discipline as the route
// validator's scratch.
type plannerScratch struct {
	recv []int
	keys []uint64
}

var plannerScratchPool = sync.Pool{New: func() interface{} { return new(plannerScratch) }}

func (s *plannerScratch) recvSlice(n int) []int {
	if cap(s.recv) < n {
		s.recv = make([]int, n)
	} else {
		s.recv = s.recv[:n]
		clear(s.recv)
	}
	return s.recv
}

// maxRunOfSortedKeys sorts the scratch's key slice and returns the length of
// its longest run of equal keys (0 for an empty slice).
func (s *plannerScratch) maxRunOfSortedKeys() int {
	if len(s.keys) == 0 {
		return 0
	}
	slices.Sort(s.keys)
	max, run := 1, 1
	for i := 1; i < len(s.keys); i++ {
		if s.keys[i] == s.keys[i-1] {
			run++
			if run > max {
				max = run
			}
		} else {
			run = 1
		}
	}
	return max
}

// PlanRoute classifies a routing instance and selects the cheapest correct
// delivery strategy. msgs is indexed by source node (rows beyond len(msgs)
// are empty); the instance must already satisfy the Problem 3.1 shape (at
// most n messages per source and per sink, destinations in range) — the
// session layer validates before planning.
func PlanRoute(n int, msgs [][]Message) RoutePlan {
	sc := plannerScratchPool.Get().(*plannerScratch)
	defer plannerScratchPool.Put(sc)
	plan := RoutePlan{N: n}
	recv := sc.recvSlice(n)
	for _, row := range msgs {
		if len(row) == 0 {
			continue
		}
		plan.ActiveSources++
		plan.TotalMessages += len(row)
		if len(row) > plan.MaxSendLoad {
			plan.MaxSendLoad = len(row)
		}
		for _, m := range row {
			recv[m.Dst]++
		}
	}
	for _, r := range recv {
		if r == 0 {
			continue
		}
		plan.ActiveSinks++
		if r > plan.MaxRecvLoad {
			plan.MaxRecvLoad = r
		}
	}

	if plan.TotalMessages == 0 {
		plan.Strategy = StrategyEmpty
		plan.Reason = "no messages"
		return plan
	}
	if plan.TotalMessages > FastPathMaxTotal(n) {
		plan.Strategy = StrategyPipeline
		plan.Reason = fmt.Sprintf("full-load regime: %d messages > n²/4 = %d", plan.TotalMessages, FastPathMaxTotal(n))
		return plan
	}

	// Fast-path eligible: compute the per-pair multiplicity by sorting the
	// pair keys (bounded by the gated total message count — O(total log
	// total), no per-call map).
	sc.keys = sc.keys[:0]
	for _, row := range msgs {
		for _, m := range row {
			sc.keys = append(sc.keys, uint64(m.Src)*uint64(n)+uint64(m.Dst))
		}
	}
	plan.MaxPairMultiplicity = sc.maxRunOfSortedKeys()

	if plan.MaxPairMultiplicity <= DirectMaxMultiplicity {
		plan.Strategy = StrategyDirect
		plan.Reason = fmt.Sprintf("sparse demand: max pair multiplicity %d ≤ %d, one-frame direct send in a single round",
			plan.MaxPairMultiplicity, DirectMaxMultiplicity)
		return plan
	}

	if plan.ActiveSources > BroadcastSourceCap(n) {
		plan.Strategy = StrategyPipeline
		plan.Reason = fmt.Sprintf("skewed demand: max pair multiplicity %d exceeds the direct budget and %d sources exceed the broadcast cap %d",
			plan.MaxPairMultiplicity, plan.ActiveSources, BroadcastSourceCap(n))
		return plan
	}
	relayRounds := planRelayRounds(n, msgs, sc)
	plan.relayRoundsCensus = relayRounds
	if 1+relayRounds <= BroadcastMaxRounds {
		plan.Strategy = StrategyBroadcast
		plan.RelayRounds = relayRounds
		plan.Reason = fmt.Sprintf("one-to-many demand: %d source(s), scatter + %d delivery round(s)",
			plan.ActiveSources, relayRounds)
		return plan
	}
	plan.Strategy = StrategyPipeline
	plan.Reason = fmt.Sprintf("skewed demand: max pair multiplicity %d exceeds the direct budget and scatter would need 1+%d rounds (cap %d)",
		plan.MaxPairMultiplicity, relayRounds, BroadcastMaxRounds)
	return plan
}

// planRelayRounds simulates the broadcast path's deterministic scatter —
// message k of source s goes to relay (s+k) mod n — and returns the number
// of delivery rounds it induces: the largest number of messages any relay
// holds for one destination (counted by sorting (relay, dst) keys in the
// shared scratch).
func planRelayRounds(n int, msgs [][]Message, sc *plannerScratch) int {
	sc.keys = sc.keys[:0]
	for src, row := range msgs {
		for k, m := range row {
			relay := (src + k) % n
			sc.keys = append(sc.keys, uint64(relay)*uint64(n)+uint64(m.Dst))
		}
	}
	return sc.maxRunOfSortedKeys()
}

// AutoRoute executes a planned routing instance on nw and is the only
// executor of the planner's arms. msgs[i] is node i's message row (rows
// beyond len(msgs) are empty) and plan is PlanRoute of the same instance, or
// a cached verdict for it, with the per-run census and schedule fields set;
// node i's deliveries land in outs[i] (len(outs) == n), sorted by (Src, Dst,
// Seq) as Route's are. The empty, direct and broadcast arms run as step
// programs on the engine-driven scheduler (RunRoundsContext); the pipeline
// arm runs on the blocking scheduler (RunContext), after the census when one
// is armed.
func AutoRoute(ctx context.Context, nw *clique.Network, msgs [][]Message, plan RoutePlan, outs [][]Message) error {
	n := nw.N()
	if plan.N != n {
		return fmt.Errorf("core: plan computed for n=%d executed on n=%d", plan.N, n)
	}
	if len(msgs) > n {
		return fmt.Errorf("core: %d message rows for n=%d", len(msgs), n)
	}
	for src, row := range msgs {
		for _, m := range row {
			if m.Src != src {
				return fmt.Errorf("core: message (%d->%d) submitted by node %d", m.Src, m.Dst, src)
			}
			if m.Dst < 0 || m.Dst >= n {
				return fmt.Errorf("core: destination %d out of range (n=%d)", m.Dst, n)
			}
		}
	}
	if plan.Strategy != StrategyPipeline {
		return nw.RunRoundsContext(ctx, newRouteStepRun(msgs, plan, outs).step)
	}
	return nw.RunContext(ctx, func(nd *clique.Node) error {
		var row []Message
		if nd.ID() < len(msgs) {
			row = msgs[nd.ID()]
		}
		if plan.Census {
			grouped := routeRow{msgs: row, order: appendDstOrder(nil, row)}
			err := driveCensus(nd, "core: census", RouteCensusRounds,
				func(round int, inbox clique.FlatInbox) error {
					return routeCensusStep(nd, &plan, grouped, round, inbox)
				},
				func(inbox clique.FlatInbox) error { return routeCensusVerify(nd.ID(), &plan, inbox) })
			if err != nil {
				return err
			}
		}
		out, err := routeWithSchedule(nd, row, plan.Sched, plan.Capture)
		outs[nd.ID()] = out
		return err
	})
}
