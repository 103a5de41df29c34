package core

import (
	"fmt"
	"slices"

	"congestedclique/internal/clique"
)

// This file implements the sparse step-mode executor for planned sorting
// instances: the RunRounds counterpart of AutoSort for the strategies
// SparseSortStepCapable admits — empty and presorted — plus the charged sort
// census. Like sparse_route.go it reproduces the blocking path's wire
// behaviour exactly: the presorted arm stages the same ranked bundles and
// forwards the same rank records through the same flat frames (one frame per
// busy destination per round, emitted in first-touch order, accounted with
// the identical SendFramed message count and model words), so stats and
// batches match the dense path bit for bit. The dense path's per-node comm
// scratch (length-n destination tables, member maps, arenas) is replaced by
// a first-touch stager whose state is proportional to the node's own
// traffic; the run's only O(n) allocations are the result headers.
//
// Round mapping. With the census armed, step rounds 0..1 carry the two
// census exchanges and the verdict is verified at the start of step round 2,
// which doubles as the strategy's round 0:
//
//	presorted  round 0: ranked bundles out   round 1: forward by rank
//	           round 2: assemble batch, done
//	empty      round 0: done
type SparseSortRun struct {
	n    int
	plan SortPlan
	keys [][]Key
	off  int // census rounds preceding the strategy phase

	nodes   []sparseSortNode
	results []*SortResult
}

// sparseSortNode is the per-node state of a sorting run: the frame stager
// and the relayed records carried from the deal round to the forward round.
type sparseSortNode struct {
	stager frameStager
}

// NewSparseSortRun prepares a step-mode execution of plan over keys (indexed
// by node, rows beyond len(keys) empty). The plan must be PlanSort of the
// same instance and its strategy must be SparseSortStepCapable.
func NewSparseSortRun(n int, keys [][]Key, plan SortPlan) (*SparseSortRun, error) {
	if !SparseSortStepCapable(plan.Strategy) {
		return nil, fmt.Errorf("core: sparse sort: strategy %v requires the blocking scheduler", plan.Strategy)
	}
	if plan.N != n {
		return nil, fmt.Errorf("core: sort plan computed for n=%d executed on n=%d", plan.N, n)
	}
	run := &SparseSortRun{
		n:       n,
		plan:    plan,
		keys:    keys,
		nodes:   make([]sparseSortNode, n),
		results: make([]*SortResult, n),
	}
	if plan.Census {
		run.off = SortCensusRounds
	}
	return run, nil
}

// row returns node's key row (nil when the node holds no keys).
func (run *SparseSortRun) row(node int) []Key {
	if node < len(run.keys) {
		return run.keys[node]
	}
	return nil
}

// Result returns node's sort result, valid after the run completes
// successfully; it is non-nil for every node.
func (run *SparseSortRun) Result(node int) *SortResult { return run.results[node] }

// Rounds returns the total step rounds the run will use (census included).
func (run *SparseSortRun) Rounds() int { return run.off + run.plan.Rounds() }

// Step is the clique.StepFunc of the run.
func (run *SparseSortRun) Step(nd *clique.Node, round int, inbox clique.FlatInbox) (bool, error) {
	if round < run.off {
		return false, run.censusStep(nd, round, inbox)
	}
	if run.off > 0 && round == run.off {
		if err := run.censusVerify(nd, inbox); err != nil {
			return true, err
		}
	}
	sround := round - run.off
	switch run.plan.Strategy {
	case SortStrategyEmpty:
		if row := run.row(nd.ID()); len(row) != 0 {
			return true, fmt.Errorf("core: empty sort plan but node %d holds %d keys", nd.ID(), len(row))
		}
		run.results[nd.ID()] = &SortResult{}
		return true, nil
	case SortStrategyPresorted:
		return run.presortedStep(nd, sround, inbox)
	default:
		return true, fmt.Errorf("core: unknown sort strategy %v", run.plan.Strategy)
	}
}

// censusStep executes the two sort-census exchanges of runSortCensus.
func (run *SparseSortRun) censusStep(nd *clique.Node, round int, inbox clique.FlatInbox) error {
	n := run.n
	id := nd.ID()
	switch round {
	case 0:
		// R1: every node reports (count, row hash) to node 0.
		row := run.row(id)
		nd.Send(0, clique.Packet{clique.Word(len(row)), clique.Word(sortRowHash(row))})
	case 1:
		// R2: node 0 folds and broadcasts [strategy, fingerprint].
		if id != 0 {
			return nil
		}
		h := uint64(fnvOffset64)
		missing := eachAggregate(inbox, n, 2, func(p clique.Packet) {
			h = foldRows(h, int(p[0]), uint64(p[1]))
		})
		if missing >= 0 {
			return fmt.Errorf("core: sort census: node 0 missing aggregate from node %d", missing)
		}
		verdict := clique.Packet{clique.Word(run.plan.Strategy), clique.Word(h)}
		for to := 0; to < n; to++ {
			nd.Send(to, verdict)
		}
	}
	return nil
}

// censusVerify checks the broadcast sort verdict against the plan at step
// round 2, with the exact diagnostics of the blocking census.
func (run *SparseSortRun) censusVerify(nd *clique.Node, inbox clique.FlatInbox) error {
	plan := run.plan
	verdict := soleFrom(inbox, 0)
	if len(verdict) != 2 {
		return fmt.Errorf("core: sort census: node %d missing verdict broadcast", nd.ID())
	}
	if SortStrategy(verdict[0]) != plan.Strategy {
		return fmt.Errorf("core: sort census: broadcast verdict %v disagrees with plan %v at node %d",
			SortStrategy(verdict[0]), plan.Strategy, nd.ID())
	}
	if plan.CensusHasFP && uint64(verdict[1]) != plan.CensusFP {
		return fmt.Errorf("core: sort census: instance fingerprint %x disagrees with plan fingerprint %x at node %d",
			uint64(verdict[1]), plan.CensusFP, nd.ID())
	}
	return nil
}

// presortedStep is presortedSort (and the dealByRank/dealDeliver pair behind
// it) as a step program.
func (run *SparseSortRun) presortedStep(nd *clique.Node, sround int, inbox clique.FlatInbox) (bool, error) {
	const context = "presorted.rank"
	n := run.n
	id := nd.ID()
	st := &run.nodes[id]
	plan := run.plan
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
			st.stager.open((id + packetIdx) % n)
			st.stager.words(clique.Word(hi - lo))
			for t := lo; t < hi; t++ {
				k := keys[t]
				st.stager.words(clique.Word(start+t), k.Value, clique.Word(k.Origin), clique.Word(k.Seq))
			}
			st.stager.close()
			packetIdx++
		}
		st.stager.flush(nd)
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
			st.stager.open(dst)
			st.stager.words(clique.Word(rk.rank), rk.key.Value, clique.Word(rk.key.Origin), clique.Word(rk.key.Seq))
			st.stager.close()
		}
		st.stager.flush(nd)
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
