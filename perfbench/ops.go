package main

import (
	"context"
	"fmt"
	"time"

	cc "congestedclique"

	"congestedclique/internal/core"
	"congestedclique/internal/verify"
)

// The paper's round bounds, checked on every operation that runs the
// pipeline (Theorem 3.7 and Theorem 4.5), and the per-edge word constant the
// repository's property tests use.
const (
	routePipelineRounds = 16
	sortPipelineRounds  = 37
	maxEdgeWordsBound   = 64
)

// op is one generated operation: a routing instance or a sorting instance,
// held both in the protocol's form (for verification and replays) and in
// the public API's form (what the program under test receives).
type op struct {
	class  string // per-class latency bucket, e.g. "route_full"
	route  bool
	msgs   [][]core.Message
	ccMsgs [][]cc.Message
	keys   [][]core.Key
	values [][]int64
	// id names the instance's demand shape for the plan-cache model
	// (sparse-recurring only).
	id string
}

func routeOp(class string, msgs [][]core.Message) *op {
	cm := make([][]cc.Message, len(msgs))
	for i, row := range msgs {
		cm[i] = make([]cc.Message, len(row))
		for j, m := range row {
			cm[i][j] = cc.Message{Src: m.Src, Dst: m.Dst, Seq: m.Seq, Payload: m.Payload}
		}
	}
	return &op{class: class, route: true, msgs: msgs, ccMsgs: cm}
}

func sortOp(class string, values [][]int64) *op {
	keys := make([][]core.Key, len(values))
	for i, row := range values {
		keys[i] = make([]core.Key, len(row))
		for j, v := range row {
			keys[i][j] = core.Key{Value: v, Origin: i, Seq: j}
		}
	}
	return &op{class: class, keys: keys, values: values}
}

// opResult is what the API returned for one op.
type opResult struct {
	route *cc.RouteResult
	sort  *cc.SortResult
}

func (r opResult) stats() cc.Stats {
	if r.route != nil {
		return r.route.Stats
	}
	return r.sort.Stats
}

func (o *op) call(ctx context.Context, c *cc.Clique) (opResult, error) {
	if o.route {
		res, err := c.Route(ctx, o.ccMsgs)
		return opResult{route: res}, err
	}
	res, err := c.Sort(ctx, o.values)
	return opResult{sort: res}, err
}

// check verifies the output against the instance with internal/verify.
func (o *op) check(r opResult) error {
	if o.route {
		return verify.Routing(o.msgs, coreDelivered(r.route.Delivered))
	}
	return verify.Sorting(o.keys, coreSortResults(r.sort.Batches, r.sort.Starts, r.sort.Total))
}

func coreDelivered(d [][]cc.Message) [][]core.Message {
	out := make([][]core.Message, len(d))
	for i, row := range d {
		out[i] = make([]core.Message, len(row))
		for j, m := range row {
			out[i][j] = core.Message{Src: m.Src, Dst: m.Dst, Seq: m.Seq, Payload: m.Payload}
		}
	}
	return out
}

func coreSortResults(batches [][]cc.Key, starts []int, total int) []*core.SortResult {
	out := make([]*core.SortResult, len(batches))
	for i, b := range batches {
		ks := make([]core.Key, len(b))
		for j, k := range b {
			ks[j] = core.Key{Value: k.Value, Origin: k.Origin, Seq: k.Seq}
		}
		start := 0
		if i < len(starts) {
			start = starts[i]
		}
		out[i] = &core.SortResult{Batch: ks, Start: start, Total: total}
	}
	return out
}

// corruptResult damages one element of an output (the smoke test's proof
// that verification catches a wrong answer).
func corruptResult(r opResult) {
	if r.route != nil {
		for _, row := range r.route.Delivered {
			if len(row) > 0 {
				row[0].Payload ^= 1
				return
			}
		}
		return
	}
	for _, b := range r.sort.Batches {
		if len(b) > 0 {
			b[0].Value++
			return
		}
	}
}

// noteEdgeLoad counts an op whose per-edge load exceeds maxEdgeWordsBound.
// It is reported, not failed: dense-pipeline's full-load Sort exceeds the
// constant on some instances (NOTES.md, "Finding: Step 8 edge load").
func (b *bench) noteEdgeLoad(what string, st cc.Stats) {
	if st.MaxEdgeWords <= maxEdgeWordsBound {
		return
	}
	b.m["bench.edge_over_64_ops"]++
	if b.m["bench.edge_over_64_ops"] <= 3 {
		fmt.Fprintf(b.log, "perfbench: note: %s carried %d words on one edge, above the constant %d\n", what, st.MaxEdgeWords, maxEdgeWordsBound)
	}
}

// loopStats is what a closed loop measured.
type loopStats struct {
	ops, routes, sorts       int
	lat                      map[string]*samples // "route", "sort" and every op class
	all                      samples             // every op's latency, in op order
	timed                    time.Duration       // sum of op latencies
	allocBytes               float64             // allocated inside op calls
	gcCycles, gcCPU, cpu     float64             // over the whole loop
	costOps                  int                 // ops in the exact-cost prefix
	rounds, words, edgeWords float64             // summed over that prefix
}

func (ls *loopStats) sample(key string) *samples {
	s := ls.lat[key]
	if s == nil {
		s = new(samples)
		ls.lat[key] = s
	}
	return s
}

// closedLoop drives one caller against h: it generates op i with next,
// times only the API call, and then — outside the timed interval — verifies
// the output with check and hands it to after (the traced run's replays).
// It stops once done reports true. The simulated cost (rounds, words, the
// op's max edge load) is averaged over the first costOps ops, a prefix fixed
// by the seed, so it repeats exactly across runs of the same seed.
func closedLoop(b *bench, h *cc.Clique, costOps int,
	next func(i int) (*op, error),
	check func(o *op, r opResult) error,
	after func(i int, o *op, r opResult, t0 time.Time, d time.Duration),
	done func(ls *loopStats, wall time.Duration) bool,
) (*loopStats, error) {
	ctx := context.Background()
	ls := &loopStats{lat: map[string]*samples{}, costOps: costOps}
	start := time.Now()
	rt0 := readRuntime()
	for i := 0; !done(ls, time.Since(start)); i++ {
		if time.Since(start) > loopWallCap {
			b.problem("timed loop hit its %v wall cap after %d ops (routes %d, sorts %d)", loopWallCap, ls.ops, ls.routes, ls.sorts)
			break
		}
		o, err := next(i)
		if err != nil {
			return nil, err
		}
		a0 := readRuntime()
		t0 := time.Now()
		r, err := o.call(ctx, h)
		d := time.Since(t0)
		a1 := readRuntime()
		ls.timed += d
		ls.all = append(ls.all, ms(d))
		ls.allocBytes += a1.allocBytes - a0.allocBytes
		ls.ops++
		b.attempted++
		kind := "sort"
		if o.route {
			kind = "route"
			ls.routes++
		} else {
			ls.sorts++
		}
		if err != nil {
			b.opFailed("op %d (%s): %v", i, o.class, err)
			continue
		}
		ls.sample(kind).add(d)
		ls.sample(o.class).add(d)
		if b.cfg.corrupt && i == 0 {
			corruptResult(r)
		}
		st := r.stats()
		if err := o.check(r); err != nil {
			b.opFailed("op %d (%s): verification: %v", i, o.class, err)
		} else if err := check(o, r); err != nil {
			b.opFailed("op %d (%s): %v", i, o.class, err)
		}
		b.noteEdgeLoad(fmt.Sprintf("op %d (%s)", i, o.class), st)
		if i < costOps {
			ls.rounds += float64(st.Rounds)
			ls.words += float64(st.TotalWords)
			ls.edgeWords += float64(st.MaxEdgeWords)
		}
		if after != nil {
			after(i, o, r, t0, d)
		}
	}
	rt1 := readRuntime()
	ls.gcCycles = rt1.gcCycles - rt0.gcCycles
	ls.gcCPU = rt1.gcCPU - rt0.gcCPU
	ls.cpu = rt1.totalCPU - rt0.totalCPU
	if ls.ops < costOps {
		b.problem("only %d ops ran, fewer than the %d-op cost prefix", ls.ops, costOps)
	}
	return ls, nil
}

// loopWallCap bounds a timed loop so a run always ends within a few
// minutes, even on a much slower machine.
const loopWallCap = 120 * time.Second

// report writes the end-to-end metrics of a closed loop.
func (ls *loopStats) report(b *bench) {
	b.m["route_ms_p50"] = ls.sample("route").quantile(0.5)
	b.m["route_ms_p90"] = ls.sample("route").quantile(0.9)
	b.m["sort_ms_p50"] = ls.sample("sort").quantile(0.5)
	b.m["sort_ms_p90"] = ls.sample("sort").quantile(0.9)
	ok := float64(ls.ops - b.failed)
	b.m["ops_per_s"] = ratio(ok, ls.timed.Seconds())
	cost := float64(min(ls.costOps, ls.ops))
	b.m["rounds_per_op"] = ratio(ls.rounds, cost)
	b.m["words_per_op"] = ratio(ls.words, cost)
	b.m["max_edge_words"] = ratio(ls.edgeWords, cost)
	b.m["alloc_mib_per_op"] = ratio(ls.allocBytes/(1<<20), float64(ls.ops))
	b.m["runtime.gc_cpu_fraction"] = ratio(ls.gcCPU, ls.cpu)
	b.m["runtime.gc_per_op"] = ratio(ls.gcCycles, float64(ls.ops))
}

// classP50 reports the per-class medians as congestedclique.<class>_ms_p50.
func (ls *loopStats) classP50(b *bench, classes ...string) {
	for _, c := range classes {
		b.m["congestedclique."+c+"_ms_p50"] = ls.sample(c).quantile(0.5)
	}
}
