package main

import (
	"container/list"
	"context"
	"fmt"
	"math/rand"
	"time"

	cc "congestedclique"

	"congestedclique/internal/core"
	"congestedclique/internal/workload"
)

// sparse-recurring: one caller on New(4096, AlgorithmAuto, WithSparsePath,
// WithPlanCache(16)) replaying a seeded trace of O(n)-message instances.
// The planner, fingerprint, plan cache, charged census, session staging and
// the step-mode scheduler carry the work; the engine delivers almost
// nothing.
const (
	sparseN        = 4096
	sparseCacheCap = 16
)

// The trace's op mix and recurrence design. Ops come in blocks of 20 with a
// fixed class composition (12 direct Routes, 3 broadcast Routes, 5
// presorted Sorts) in a seeded order, so every seed runs the same mix. Each
// op then takes either a fresh never-seen demand shape (probability
// sparseFresh) or one of its class's recurring pool shapes, skewed towards
// the first ones. The pools hold more shapes (12+4+8) than the cache has
// entries, so LRU evictions happen and the designed hit rate stays below 1.
var sparseBlock = []struct {
	class string
	count int
}{{"route_direct", 12}, {"route_broadcast", 3}, {"sort_presorted", 5}}

const (
	sparseFresh         = 0.1
	sparseDirectPool    = 12
	sparseBroadcastPool = 4
	sparsePresortedPool = 8
)

// sparseShape names one demand shape: its class and the parameter that
// distinguishes it (a node rotation for routes, a value offset for sorts).
// Two ops with equal shapes are the same plan-cache entry.
type sparseShape struct {
	class string
	param int
}

// sparseTrace generates the seeded op sequence of one run.
type sparseTrace struct {
	n     int
	rng   *rand.Rand
	pools map[string][]int
	warm  int      // the warm-up shapes' parameter, never drawn by the timed trace
	block []string // classes of the current block, consumed from the front
}

func newSparseTrace(n int, seed int64) *sparseTrace {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	st := &sparseTrace{n: n, rng: rng, pools: map[string][]int{}, warm: perm[n-1]}
	st.pools["route_direct"] = perm[:sparseDirectPool]
	st.pools["route_broadcast"] = perm[sparseDirectPool : sparseDirectPool+sparseBroadcastPool]
	st.pools["sort_presorted"] = perm[:sparsePresortedPool]
	return st
}

// warmupShapes is one shape of each class, all with the warm-up parameter.
func (st *sparseTrace) warmupShapes() []sparseShape {
	var out []sparseShape
	for _, c := range sparseBlock {
		out = append(out, sparseShape{c.class, st.warm})
	}
	return out
}

// next draws the next shape of the timed trace.
func (st *sparseTrace) next() sparseShape {
	if len(st.block) == 0 {
		for _, c := range sparseBlock {
			for k := 0; k < c.count; k++ {
				st.block = append(st.block, c.class)
			}
		}
		st.rng.Shuffle(len(st.block), func(i, j int) { st.block[i], st.block[j] = st.block[j], st.block[i] })
	}
	class := st.block[0]
	st.block = st.block[1:]
	if st.rng.Float64() < sparseFresh {
		for {
			if p := st.rng.Intn(st.n); p != st.warm {
				return sparseShape{class, p}
			}
		}
	}
	pool := st.pools[class]
	x := st.rng.Float64()
	return sparseShape{class, pool[int(x*x*float64(len(pool)))]}
}

// build materialises a shape as an op; payloads come from payloadSeed, so
// recurring route shapes carry fresh payloads (the cache keys on the
// destination pattern only).
func (st *sparseTrace) build(s sparseShape, payloadSeed int64) (*op, error) {
	n := st.n
	var o *op
	switch s.class {
	case "route_direct":
		ri, err := workload.ScaleSparseRoute(n, payloadSeed)
		if err != nil {
			return nil, err
		}
		o = routeOp(s.class, rotate(ri.Msgs, s.param, n))
	case "route_broadcast":
		ri, err := workload.ScaleBroadcastRoute(n)
		if err != nil {
			return nil, err
		}
		o = routeOp(s.class, rotate(ri.Msgs, s.param, n))
	default:
		values := workload.ScalePresortedValues(n)
		off := int64(s.param) * 1_000_003
		for _, row := range values {
			for j := range row {
				row[j] += off
			}
		}
		o = sortOp(s.class, values)
	}
	o.id = fmt.Sprintf("%s/%d", s.class, s.param)
	return o, nil
}

// rotate relabels node i as (i+r) mod n, which keeps the planner's verdict
// and changes the demand shape.
func rotate(msgs [][]core.Message, r, n int) [][]core.Message {
	out := make([][]core.Message, n)
	for src, row := range msgs {
		s := (src + r) % n
		out[s] = make([]core.Message, len(row))
		for j, m := range row {
			out[s][j] = core.Message{Src: s, Dst: (m.Dst + r) % n, Seq: m.Seq, Payload: m.Payload}
		}
	}
	return out
}

// lruModel predicts the plan cache's hits: an LRU of the given capacity
// over shape identities.
type lruModel struct {
	cap   int
	order *list.List
	at    map[string]*list.Element
	hits  int
}

func newLRUModel(capacity int) *lruModel {
	return &lruModel{cap: capacity, order: list.New(), at: map[string]*list.Element{}}
}

func (m *lruModel) access(id string) {
	if el, ok := m.at[id]; ok {
		m.hits++
		m.order.MoveToFront(el)
		return
	}
	m.at[id] = m.order.PushFront(id)
	if m.order.Len() > m.cap {
		old := m.order.Back()
		m.order.Remove(old)
		delete(m.at, old.Value.(string))
	}
}

var sparseStrategy = map[string]string{
	"route_direct":    cc.StrategyDirect.String(),
	"route_broadcast": cc.StrategyBroadcast.String(),
	"sort_presorted":  cc.SortStrategyPresorted.String(),
}

// checkFastArm enforces that a fast-path op ran the strategy its class was
// designed for, in exactly its plan's rounds plus the charged census.
func checkFastArm(n int) func(o *op, r opResult) error {
	return func(o *op, r opResult) error {
		var strategy string
		var want int
		if o.route {
			strategy = r.route.Strategy.String()
			want = core.PlanRoute(n, o.msgs).Rounds() + core.RouteCensusRounds
		} else {
			strategy = r.sort.Strategy.String()
			want = core.PlanSort(n, o.keys).Rounds() + core.SortCensusRounds
		}
		if strategy != sparseStrategy[o.class] {
			return fmt.Errorf("planner chose %s, the %s class needs %s", strategy, o.class, sparseStrategy[o.class])
		}
		if got := r.stats().Rounds; got != want {
			return fmt.Errorf("%s took %d rounds, its plan plus census is %d", o.class, got, want)
		}
		return nil
	}
}

func runSparse(b *bench) error {
	n := b.cfg.n
	if n == 0 {
		n = sparseN
	}
	ctx := context.Background()
	trace := newSparseTrace(n, b.cfg.seed)
	h, err := setupMedian(b, func() (*cc.Clique, error) {
		c, err := cc.New(n, cc.WithAlgorithm(cc.AlgorithmAuto), cc.WithSparsePath(), cc.WithPlanCache(sparseCacheCap))
		if err != nil {
			return nil, err
		}
		for j, s := range trace.warmupShapes() {
			o, err := trace.build(s, instanceSeed(b.cfg.seed, -1-j))
			if err == nil {
				_, err = o.call(ctx, c)
			}
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("sparse warm-up: %w", err)
			}
		}
		return c, nil
	}, func(c *cc.Clique) { c.Close() })
	if err != nil {
		return err
	}
	defer h.Close()

	model := newLRUModel(sparseCacheCap)
	next := func(i int) (*op, error) {
		o, err := trace.build(trace.next(), instanceSeed(b.cfg.seed, i))
		if err == nil {
			model.access(o.id)
		}
		return o, err
	}
	cs0 := h.CumulativeStats()
	minOps := b.cfg.minOps
	var (
		after      func(int, *op, opResult, time.Time, time.Duration)
		done       func(*loopStats, time.Duration) bool
		costOps    = 2 * minOps
		tracedFrom = -1
		planMS     samples
		fpMS       samples
		selfMS     samples
		census     float64
		frameNs    samples
	)
	if b.cfg.trace {
		costOps = 2
		// The first quarter of the traced run is untraced, so the overhead
		// of the side calls shows as the latency difference.
		after = func(i int, o *op, r opResult, t0 time.Time, d time.Duration) {
			if tracedFrom < 0 || i < tracedFrom {
				return
			}
			root := b.tr.add("congestedclique."+opName(o), i, 0, t0, t0.Add(d))
			var plan, fp time.Duration
			var planRounds int
			if o.route {
				s := time.Now()
				p := core.PlanRoute(n, o.msgs)
				plan = time.Since(s)
				s2 := time.Now()
				core.RouteFingerprint(n, o.msgs)
				fp = time.Since(s2)
				planRounds = p.Rounds()
				b.tr.add("core.PlanRoute", i, root, s, s.Add(plan))
				b.tr.add("core.RouteFingerprint", i, root, s2, s2.Add(fp))
			} else {
				s := time.Now()
				p := core.PlanSort(n, o.keys)
				plan = time.Since(s)
				s2 := time.Now()
				core.SortFingerprint(n, o.keys)
				fp = time.Since(s2)
				planRounds = p.Rounds()
				b.tr.add("core.PlanSort", i, root, s, s.Add(plan))
				b.tr.add("core.SortFingerprint", i, root, s2, s2.Add(fp))
			}
			planMS.add(plan)
			fpMS.add(fp)
			selfMS.add(d - plan - fp)
			census += float64(r.stats().Rounds - planRounds)
			if len(frameNs) < 3 {
				frameNs = append(frameNs, frameNsForStats(b, r.stats()))
			}
		}
		done = func(ls *loopStats, wall time.Duration) bool {
			if tracedFrom < 0 && wall.Seconds() >= b.cfg.seconds/4 {
				tracedFrom = ls.ops
			}
			return wall.Seconds() >= b.cfg.seconds && ls.routes >= 1 && ls.sorts >= 1 && tracedFrom >= 0 && ls.ops > tracedFrom
		}
	} else {
		done = func(ls *loopStats, _ time.Duration) bool {
			return ls.timed.Seconds() >= b.cfg.seconds && ls.routes >= minOps && ls.sorts >= minOps
		}
	}
	ls, err := closedLoop(b, h, costOps, next, checkFastArm(n), after, done)
	if err != nil {
		return err
	}
	cs1 := h.CumulativeStats()
	hits := cs1.PlanCacheHits - cs0.PlanCacheHits
	misses := cs1.PlanCacheMisses - cs0.PlanCacheMisses
	inval := cs1.PlanCacheInvalidations - cs0.PlanCacheInvalidations
	if int(hits) != model.hits {
		b.problem("plan cache served %d hits, the trace's ideal LRU hit count is %d", hits, model.hits)
	}
	if inval != 0 {
		b.problem("plan cache reported %d invalidations on a collision-free trace", inval)
	}
	ls.report(b)
	if b.cfg.trace {
		ls.classP50(b, "route_direct", "route_broadcast", "sort_presorted")
		k := float64(max(len(planMS), 1))
		b.m["core.plan_ms"] = planMS.mean()
		b.m["core.fingerprint_ms"] = fpMS.mean()
		b.m["core.census_rounds_per_op"] = census / k
		b.m["core.plan_cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
		b.m["core.plan_cache_invalidations"] = float64(inval)
		b.m["core.frame_ns_per_word"] = median(frameNs)
		b.m["congestedclique.self_ms"] = selfMS.mean()
		b.m["bench.trace_overhead"] = phaseOverhead(ls, tracedFrom)
		return serviceLayer(b, b.cfg.seconds/2)
	}
	return nil
}

// phaseOverhead compares the median op latency of the traced phase (ops
// from tracedFrom on) with that of the untraced phase before it.
func phaseOverhead(ls *loopStats, tracedFrom int) float64 {
	if tracedFrom <= 0 || tracedFrom >= len(ls.all) {
		return 0
	}
	return ratio(ls.all[tracedFrom:].quantile(0.5), ls.all[:tracedFrom].quantile(0.5)) - 1
}
