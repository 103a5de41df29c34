package core

import (
	"fmt"
	"slices"

	"congestedclique/internal/clique"
)

// This file implements the empty and presorted sorting arms as step
// programs on the engine-driven (RunRounds) scheduler; AutoSort sends every
// instance planned onto them here, and they are the only implementation of
// these arms. The presorted arm stages ranked bundles and forwards rank
// records through the flat-frame wire format of the pipeline's dealByRank
// (one frame per busy destination per round, emitted in first-touch order,
// accounted with the same SendFramed message count and model words), so its
// output and stats are those of Algorithm 4's Step 8 run on the plan's
// ranks. The blocking comm's per-node scratch (length-n destination tables,
// member maps, arenas) is replaced by a first-touch stager whose state is
// proportional to the node's own traffic; the run's only O(n) allocations
// are the per-node stagers.
//
// Round mapping. With the census armed, step rounds 0..1 carry the two
// census exchanges (census.go) and the verdict is verified at the start of
// step round 2, which doubles as the strategy's round 0:
//
//	presorted  round 0: ranked bundles out   round 1: forward by rank
//	           round 2: assemble batch, done
//	empty      round 0: done
type sortStepRun struct {
	plan SortPlan
	keys [][]Key
	off  int // census rounds preceding the strategy phase

	stagers []frameStager // presorted: one per node
	results []*SortResult
}

// newSortStepRun prepares a step-mode execution of plan over keys (indexed
// by node, rows beyond len(keys) empty), writing node i's result to
// results[i].
func newSortStepRun(keys [][]Key, plan SortPlan, results []*SortResult) *sortStepRun {
	run := &sortStepRun{plan: plan, keys: keys, results: results}
	if plan.Census {
		run.off = SortCensusRounds
	}
	if plan.Strategy == SortStrategyPresorted {
		run.stagers = make([]frameStager, plan.N)
	}
	return run
}

// row returns node's key row (nil when the node holds no keys).
func (run *sortStepRun) row(node int) []Key {
	if node < len(run.keys) {
		return run.keys[node]
	}
	return nil
}

// step is the clique.StepFunc of the run.
func (run *sortStepRun) step(nd *clique.Node, round int, inbox clique.FlatInbox) (bool, error) {
	id := nd.ID()
	if round < run.off {
		return false, sortCensusStep(nd, &run.plan, run.row(id), round, inbox)
	}
	if run.off > 0 && round == run.off {
		if err := sortCensusVerify(id, &run.plan, inbox); err != nil {
			return true, err
		}
	}
	sround := round - run.off
	switch run.plan.Strategy {
	case SortStrategyEmpty:
		if row := run.row(id); len(row) != 0 {
			return true, fmt.Errorf("core: empty sort plan but node %d holds %d keys", id, len(row))
		}
		run.results[id] = &SortResult{}
		return true, nil
	case SortStrategyPresorted:
		return run.presortedStep(nd, sround, inbox)
	default:
		return true, fmt.Errorf("core: unknown sort strategy %v", run.plan.Strategy)
	}
}

// presortedStep is the skip-redistribution arm: the plan certifies that the
// rows partition the global order, so after a free local sort this node's
// run occupies the contiguous global ranks starting at StartRanks[me], and
// the two rounds of Algorithm 4's Step 8 (dealByRank, then dealDeliver)
// finish the job alone.
func (run *sortStepRun) presortedStep(nd *clique.Node, sround int, inbox clique.FlatInbox) (bool, error) {
	const context = "presorted.rank"
	plan := &run.plan
	n := plan.N
	id := nd.ID()
	st := &run.stagers[id]
	total := 0
	if len(plan.StartRanks) > 0 {
		total = plan.StartRanks[len(plan.StartRanks)-1]
	}
	perNode := ceilDiv(total, n)
	if perNode == 0 {
		perNode = 1
	}
	switch sround {
	case 0:
		if len(plan.StartRanks) != n+1 {
			return true, fmt.Errorf("core: presorted plan carries %d start ranks for n=%d", len(plan.StartRanks), n)
		}
		myKeys := run.row(id)
		if got, want := len(myKeys), plan.StartRanks[id+1]-plan.StartRanks[id]; got != want {
			return true, fmt.Errorf("core: presorted plan expected %d keys at node %d, got %d (plan does not match the instance)", want, id, got)
		}
		keys := append([]Key(nil), myKeys...)
		sortKeys(keys)
		// Round 1 of dealByRank: deal (rank,key) pairs, bundled, round-robin.
		start := plan.StartRanks[id]
		packetIdx := 0
		for lo := 0; lo < len(keys); lo += keysPerBundle {
			hi := min(lo+keysPerBundle, len(keys))
			st.open((id + packetIdx) % n)
			st.words(clique.Word(hi - lo))
			for t := lo; t < hi; t++ {
				k := keys[t]
				st.words(clique.Word(start+t), k.Value, clique.Word(k.Origin), clique.Word(k.Seq))
			}
			st.close()
			packetIdx++
		}
		st.flush(nd)
		return false, nil
	case 1:
		// Decode the ranked bundles and forward every key to the node owning
		// its rank range (round 2 of dealDeliver).
		var relayed []rankedKey
		for _, frame := range inbox.Records() {
			records, err := appendFrameMessages(nil, frame)
			if err != nil {
				return true, fmt.Errorf("%s deal: %w", context, err)
			}
			for _, p := range records {
				if len(p) < 1 {
					continue
				}
				count := int(p[0])
				if count < 0 || len(p) < 1+count*(keyWords+1) {
					return true, fmt.Errorf("%s deal: malformed ranked bundle", context)
				}
				for i := 0; i < count; i++ {
					base := 1 + i*(keyWords+1)
					k, decErr := decodeKey(p[base+1:])
					if decErr != nil {
						return true, fmt.Errorf("%s deal: %w", context, decErr)
					}
					relayed = append(relayed, rankedKey{rank: int(p[base]), key: k})
				}
			}
		}
		for _, rk := range relayed {
			dst := min(rk.rank/perNode, n-1)
			st.open(dst)
			st.words(clique.Word(rk.rank), rk.key.Value, clique.Word(rk.key.Origin), clique.Word(rk.key.Seq))
			st.close()
		}
		st.flush(nd)
		return false, nil
	default:
		// Assemble the contiguous batch.
		var mine []rankedKey
		for _, frame := range inbox.Records() {
			records, err := appendFrameMessages(nil, frame)
			if err != nil {
				return true, fmt.Errorf("%s deliver: %w", context, err)
			}
			for _, p := range records {
				if len(p) < 1+keyWords {
					continue
				}
				k, decErr := decodeKey(p[1:])
				if decErr != nil {
					return true, fmt.Errorf("%s deliver: %w", context, decErr)
				}
				mine = append(mine, rankedKey{rank: int(p[0]), key: k})
			}
		}
		slices.SortFunc(mine, func(a, b rankedKey) int { return a.rank - b.rank })
		res := &SortResult{Total: total}
		if len(mine) > 0 {
			res.Start = mine[0].rank
			res.Batch = make([]Key, 0, len(mine))
		} else {
			res.Start = min(id*perNode, total)
		}
		for i, rk := range mine {
			if i > 0 && mine[i-1].rank+1 != rk.rank {
				return true, fmt.Errorf("%s deliver: node %d received non-contiguous ranks %d and %d", context, id, mine[i-1].rank, rk.rank)
			}
			res.Batch = append(res.Batch, rk.key)
		}
		run.results[id] = res
		return true, nil
	}
}

// frameStager is the comm staging log (stageOpen/stageClose/flushFrames in
// types.go) re-implemented without dense per-node tables: the destination
// load map, first-touch order and record log are all proportional to the
// traffic actually staged this round. flush emits byte-identical frames in
// the identical first-touch destination order with the identical SendFramed
// accounting, so a step-mode round is indistinguishable on the wire from the
// blocking comm's round.
type frameStager struct {
	stage    []clique.Word // [dst, len, words...] records in staging order
	lastOpen int           // stage offset of the open record's dst slot
	touched  []int32       // destinations in first-touch order
	load     map[int32]*stagerDst
	frameBuf []clique.Word
}

// stagerDst is the per-destination accounting of one staging round.
type stagerDst struct {
	words int32 // payload plus length slots
	count int32 // records staged
	start int32 // first record's offset in stage (count==1: served in place)
	off   int32 // multi-record assembly cursor into frameBuf
}

// open starts a record bound for dst.
func (s *frameStager) open(dst int) {
	if s.load == nil {
		s.load = make(map[int32]*stagerDst)
	}
	s.lastOpen = len(s.stage)
	s.stage = append(s.stage, clique.Word(dst), 0)
}

// words appends payload words to the open record.
func (s *frameStager) words(ws ...clique.Word) {
	s.stage = append(s.stage, ws...)
}

// close finishes the open record, fixing its length slot and the
// destination's frame accounting.
func (s *frameStager) close() {
	hdr := s.lastOpen
	l := int32(len(s.stage) - hdr - 2)
	s.stage[hdr+1] = clique.Word(l)
	d := int32(s.stage[hdr])
	ds := s.load[d]
	if ds == nil {
		ds = &stagerDst{start: int32(hdr)}
		s.load[d] = ds
		s.touched = append(s.touched, d)
	}
	ds.words += l + 1
	ds.count++
}

// flush assembles one frame per busy destination — in first-touch order,
// single-record frames served straight from the log, multi-record frames
// copied into frameBuf — and hands them to the engine with the logical
// message count and model word cost, exactly like comm.flushFrames.
func (s *frameStager) flush(nd *clique.Node) {
	if len(s.touched) == 0 {
		return
	}
	total := 0
	multi := false
	for _, d := range s.touched {
		ds := s.load[d]
		if ds.count > 1 {
			multi = true
			ds.start = int32(total)
			ds.off = int32(total + 1) // write cursor, past the count slot
			total += 1 + int(ds.words)
		}
	}
	if multi {
		if cap(s.frameBuf) < total {
			s.frameBuf = make([]clique.Word, total, total+total/2)
		} else {
			s.frameBuf = s.frameBuf[:total]
		}
		for i := 0; i < len(s.stage); {
			d := int32(s.stage[i])
			l := int(s.stage[i+1])
			if ds := s.load[d]; ds.count > 1 {
				cur := int(ds.off)
				copy(s.frameBuf[cur:cur+1+l], s.stage[i+1:i+2+l])
				ds.off = int32(cur + 1 + l)
			}
			i += 2 + l
		}
	}
	for _, d := range s.touched {
		ds := s.load[d]
		count := int(ds.count)
		size := 1 + int(ds.words) // count slot plus records
		start := int(ds.start)
		if count == 1 {
			frame := s.stage[start : start+size : start+size]
			frame[0] = 1
			nd.SendFramed(int(d), clique.Packet(frame), 1, size-2)
		} else {
			s.frameBuf[start] = clique.Word(count)
			nd.SendFramed(int(d), clique.Packet(s.frameBuf[start:start+size:start+size]), count, size-1-count)
		}
		delete(s.load, d)
	}
	s.touched = s.touched[:0]
	s.stage = s.stage[:0]
}
