package core

import (
	"fmt"
	"slices"

	"congestedclique/internal/clique"
)

// This file implements the empty, direct and broadcast routing arms, as
// step programs on the engine-driven (RunRounds) scheduler; AutoRoute sends
// every instance planned onto them here. They are the only implementation
// of these arms. A run reads the caller's message rows in place and keeps no
// per-node goroutine stack and no length-n per-node slice: every step
// decodes its clique.FlatInbox records in one sweep, so every node's state
// and per-round work are proportional to its own traffic (node 0's census
// aggregation is Θ(n) because it receives n packets), and the run's only
// O(n) allocations are flat index tables.
//
// Round mapping. With the census armed, step rounds 0..2 carry the three
// census exchanges (R1 counts, R2 aggregates, R3 verdict; census.go) and the
// verdict is verified at the start of step round 3, which doubles as the
// strategy's round 0. Strategy rounds:
//
//	direct     round 0: frames out          round 1: decode, done
//	broadcast  round 0: scatter             round 1: build held, relay 0
//	           round 1+r: accumulate, relay r (r < RelayRounds)
//	           round 1+RelayRounds: accumulate, done
//	empty      round 0: done
type routeStepRun struct {
	plan RoutePlan
	msgs [][]Message
	off  int // census rounds preceding the strategy phase

	// order holds every row's positions stably sorted by destination, rows
	// concatenated in node order from orderStart; built only when the direct
	// path or the census walks a row one destination at a time.
	order      []int32
	orderStart []int32

	nodes []broadcastNode
	outs  [][]Message
}

// broadcastNode is one node's state on the broadcast path: the held and
// received accumulators, sized by the node's own traffic.
type broadcastNode struct {
	held      []Message // held messages, grouped by ascending dst
	heldStart []int32   // group boundaries into held
	received  []Message
	relayBuf  []clique.Word
}

// routeRow is one node's message row together with its destination order.
type routeRow struct {
	msgs  []Message
	order []int32 // positions of msgs stably sorted by destination
}

// eachDst calls f once per destination of the row, ascending, with the
// positions of the messages bound there in submission order.
func (r routeRow) eachDst(f func(dst int, run []int32)) {
	for i := 0; i < len(r.order); {
		dst := r.msgs[r.order[i]].Dst
		j := i + 1
		for j < len(r.order) && r.msgs[r.order[j]].Dst == dst {
			j++
		}
		f(dst, r.order[i:j])
		i = j
	}
}

// appendDstOrder appends row's positions, stably sorted by destination, to
// order.
func appendDstOrder(order []int32, row []Message) []int32 {
	base := len(order)
	order = slices.Grow(order, len(row))
	for i := range row {
		order = append(order, int32(i))
	}
	slices.SortStableFunc(order[base:], func(a, b int32) int { return row[a].Dst - row[b].Dst })
	return order
}

// newRouteStepRun prepares a step-mode execution of plan over msgs (indexed
// by source, rows beyond len(msgs) empty), writing node i's deliveries to
// outs[i].
func newRouteStepRun(msgs [][]Message, plan RoutePlan, outs [][]Message) *routeStepRun {
	n := plan.N
	run := &routeStepRun{plan: plan, msgs: msgs, outs: outs}
	if plan.Census {
		run.off = RouteCensusRounds
	}
	if plan.Strategy == StrategyBroadcast {
		run.nodes = make([]broadcastNode, n)
	}
	if plan.Census || plan.Strategy == StrategyDirect {
		total := 0
		for _, row := range msgs {
			total += len(row)
		}
		run.order = make([]int32, 0, total)
		run.orderStart = make([]int32, n+1)
		for i := 0; i < n; i++ {
			run.orderStart[i] = int32(len(run.order))
			run.order = appendDstOrder(run.order, run.row(i))
		}
		run.orderStart[n] = int32(len(run.order))
	}
	return run
}

// row returns node's messages (nil when it holds none).
func (run *routeStepRun) row(node int) []Message {
	if node < len(run.msgs) {
		return run.msgs[node]
	}
	return nil
}

// grouped returns node's row with its destination order (an empty order
// when the run did not need one).
func (run *routeStepRun) grouped(node int) routeRow {
	r := routeRow{msgs: run.row(node)}
	if run.order != nil {
		r.order = run.order[run.orderStart[node]:run.orderStart[node+1]]
	}
	return r
}

// step is the clique.StepFunc of the run: every node executes it once per
// round under RunRounds.
func (run *routeStepRun) step(nd *clique.Node, round int, inbox clique.FlatInbox) (bool, error) {
	id := nd.ID()
	if round < run.off {
		return false, routeCensusStep(nd, &run.plan, run.grouped(id), round, inbox)
	}
	if run.off > 0 && round == run.off {
		if err := routeCensusVerify(id, &run.plan, inbox); err != nil {
			return true, err
		}
	}
	sround := round - run.off
	switch run.plan.Strategy {
	case StrategyEmpty:
		if row := run.row(id); len(row) != 0 {
			return true, fmt.Errorf("core: empty plan but node %d holds %d messages", id, len(row))
		}
		run.outs[id] = nil
		return true, nil
	case StrategyDirect:
		return run.directStep(nd, sround, inbox)
	case StrategyBroadcast:
		return run.broadcastStep(nd, sround, inbox)
	default:
		return true, fmt.Errorf("core: unknown route strategy %v", run.plan.Strategy)
	}
}

// directStep delivers every message straight over its source-destination
// edge: in strategy round 0 all messages sharing one pair are packed into
// one frame of [seq, payload] pairs sent with SendFramed, so the engine
// accounts them as individual model messages while the frame stays within
// DirectFrameWords (the plan guarantees the multiplicity bound; a violation
// means the plan does not match the instance and is reported as an error).
// Round 1 decodes.
func (run *routeStepRun) directStep(nd *clique.Node, sround int, inbox clique.FlatInbox) (bool, error) {
	id := nd.ID()
	if sround == 0 {
		row := run.grouped(id)
		// One backing buffer for all frames: pre-sized exactly, so appends
		// never reallocate and the frame views handed to the engine stay
		// valid until delivery.
		buf := make([]clique.Word, 0, len(row.msgs)*directWordsPerMessage)
		var err error
		row.eachDst(func(dst int, pos []int32) {
			if len(pos) > DirectMaxMultiplicity {
				err = fmt.Errorf("core: node %d holds %d messages for node %d, the direct plan allows %d",
					id, DirectMaxMultiplicity+1, dst, DirectMaxMultiplicity)
			}
			if err != nil {
				return
			}
			start := len(buf)
			for _, p := range pos {
				m := row.msgs[p]
				buf = append(buf, clique.Word(m.Seq), m.Payload)
			}
			frame := clique.Packet(buf[start:len(buf):len(buf)])
			nd.SendFramed(dst, frame, len(pos), len(frame))
		})
		return err != nil, err
	}
	var received []Message
	for from, p := range inbox.Records() {
		if len(p)%directWordsPerMessage != 0 {
			return true, fmt.Errorf("core: malformed direct frame with %d words", len(p))
		}
		for i := 0; i < len(p); i += directWordsPerMessage {
			received = append(received, Message{Src: from, Dst: id, Seq: int(p[i]), Payload: p[i+1]})
		}
	}
	sortMessages(received)
	run.outs[id] = received
	return true, nil
}

// broadcastStep is the one-to-many path: message k of a source is scattered
// to relay (id+k) mod n in strategy round 0; in round 1 every relay groups
// what it holds by destination and starts forwarding, one message per
// (relay, destination) edge per round, for exactly RelayRounds rounds.
// Decoded packets are converted to Message values immediately, so nothing
// aliases engine receive memory past the payload grace window.
func (run *routeStepRun) broadcastStep(nd *clique.Node, sround int, inbox clique.FlatInbox) (bool, error) {
	n := run.plan.N
	id := nd.ID()
	st := &run.nodes[id]
	relayRounds := run.plan.RelayRounds
	switch {
	case sround == 0:
		row := run.row(id)
		buf := make([]clique.Word, 0, len(row)*relayWordsPerMessage)
		for k, m := range row {
			start := len(buf)
			buf = append(buf, clique.Word(m.Dst), clique.Word(m.Seq), m.Payload)
			nd.Send((id+k)%n, clique.Packet(buf[start:len(buf):len(buf)]))
		}
		return false, nil
	case sround == 1:
		// Assemble the held groups from the scatter round: a stable sort by
		// destination keeps ascending sender order within a destination.
		for from, p := range inbox.Records() {
			if len(p) < relayWordsPerMessage {
				return true, fmt.Errorf("core: malformed scattered message with %d words", len(p))
			}
			dst := int(p[0])
			if dst < 0 || dst >= n {
				return true, fmt.Errorf("core: scattered destination %d out of range", dst)
			}
			st.held = append(st.held, Message{Src: from, Dst: dst, Seq: int(p[1]), Payload: p[2]})
		}
		slices.SortStableFunc(st.held, func(a, b Message) int { return a.Dst - b.Dst })
		st.heldStart = append(st.heldStart, 0)
		for i := 0; i < len(st.held); {
			j := i
			for j < len(st.held) && st.held[j].Dst == st.held[i].Dst {
				j++
			}
			if j-i > relayRounds {
				return true, fmt.Errorf("core: relay %d holds %d messages for node %d, broadcast plan allows %d",
					id, relayRounds+1, st.held[i].Dst, relayRounds)
			}
			st.heldStart = append(st.heldStart, int32(j))
			i = j
		}
		if relayRounds == 0 {
			run.outs[id] = nil
			return true, nil
		}
		st.relayBuf = make([]clique.Word, 0, relayWordsPerMessage*(len(st.heldStart)-1))
		relaySends(nd, st, 0)
		return false, nil
	default:
		r := sround - 2 // the relay round whose traffic this inbox carries
		for _, p := range inbox.Records() {
			if len(p) < relayWordsPerMessage {
				return true, fmt.Errorf("core: malformed relayed message with %d words", len(p))
			}
			st.received = append(st.received, Message{Src: int(p[0]), Dst: id, Seq: int(p[1]), Payload: p[2]})
		}
		if r+1 < relayRounds {
			relaySends(nd, st, r+1)
			return false, nil
		}
		sortMessages(st.received)
		run.outs[id] = st.received
		return true, nil
	}
}

// relaySends emits relay round r: for every held destination group (ascending
// dst) with more than r messages, the r-th one travels over the relay's own
// edge to the destination. The packet buffer is reused across relay rounds —
// the engine has copied the previous round's payloads at its delivery.
func relaySends(nd *clique.Node, st *broadcastNode, r int) {
	buf := st.relayBuf[:0]
	for g := 0; g+1 < len(st.heldStart); g++ {
		lo, hi := int(st.heldStart[g]), int(st.heldStart[g+1])
		if r < hi-lo {
			m := st.held[lo+r]
			start := len(buf)
			buf = append(buf, clique.Word(m.Src), clique.Word(m.Seq), m.Payload)
			nd.Send(m.Dst, clique.Packet(buf[start:len(buf):len(buf)]))
		}
	}
	st.relayBuf = buf
}
