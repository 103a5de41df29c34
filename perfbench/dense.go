package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	cc "congestedclique"

	"congestedclique/internal/clique"
	"congestedclique/internal/core"
	"congestedclique/internal/workload"
)

// dense-pipeline: one caller on one New(144) handle with the default
// (deterministic) algorithm, alternating a full-load Route and a full-load
// Sort. This is the paper's design point: Theorem 3.7 routing and Theorem
// 4.5 sorting, including the Mux inside Sort.
const denseN = 144

func denseOp(n, i int, seed int64) (*op, error) {
	if i%2 == 0 {
		ri, err := workload.NewRoutingInstance(n, n, workload.RoutingUniform, seed)
		if err != nil {
			return nil, err
		}
		return routeOp("route_full", ri.Msgs), nil
	}
	si, err := workload.NewSortingInstance(n, n, workload.KeysUniform, seed)
	if err != nil {
		return nil, err
	}
	values := make([][]int64, n)
	for i, row := range si.Keys {
		for _, k := range row {
			values[i] = append(values[i], k.Value)
		}
	}
	return sortOp("sort_full", values), nil
}

// checkPipeline enforces Theorem 3.7 / Theorem 4.5 on one op.
func checkPipeline(o *op, r opResult) error {
	st := r.stats()
	if o.route && st.Rounds > routePipelineRounds {
		return fmt.Errorf("route took %d rounds, Theorem 3.7 allows %d", st.Rounds, routePipelineRounds)
	}
	if !o.route && st.Rounds > sortPipelineRounds {
		return fmt.Errorf("sort took %d rounds, Theorem 4.5 allows %d", st.Rounds, sortPipelineRounds)
	}
	return nil
}

func runDense(b *bench) error {
	n := b.cfg.n
	if n == 0 {
		n = denseN
	}
	ctx := context.Background()
	h, err := setupMedian(b, func() (*cc.Clique, error) {
		c, err := cc.New(n)
		if err != nil {
			return nil, err
		}
		// Warm-up fills the engine's pools with one op of each kind, on
		// instances the timed trace never uses.
		for j := 0; j < 2; j++ {
			o, err := denseOp(n, j, instanceSeed(b.cfg.seed, -1-j))
			if err == nil {
				_, err = o.call(ctx, c)
			}
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("dense warm-up: %w", err)
			}
		}
		return c, nil
	}, func(c *cc.Clique) { c.Close() })
	if err != nil {
		return err
	}
	defer h.Close()
	next := func(i int) (*op, error) { return denseOp(n, i, instanceSeed(b.cfg.seed, i)) }
	if b.cfg.trace {
		return denseTraced(b, h, n, next)
	}
	minOps := b.cfg.minOps
	ls, err := closedLoop(b, h, 2*minOps, next, checkPipeline, nil, func(ls *loopStats, _ time.Duration) bool {
		return ls.timed.Seconds() >= b.cfg.seconds && ls.routes >= minOps && ls.sorts >= minOps
	})
	if err != nil {
		return err
	}
	ls.report(b)
	return nil
}

// denseTraced is the traced run of dense-pipeline. Every op is issued
// through the API (untraced) and then replayed twice as
// Network.Run(core.Route|core.Sort) on the benchmark's own engines: once
// bare, once through tracedNode. The replays must reproduce the API's
// output and Stats bit for bit; the traced replay yields the engine,
// protocol and colouring split.
func denseTraced(b *bench, h *cc.Clique, n int, next func(int) (*op, error)) error {
	bare, err := clique.New(n, clique.WithSharedCache(true))
	if err != nil {
		return err
	}
	defer bare.Close()
	// A protocol panic inside a traced replay must fail the run rather than
	// park its peers forever, so the traced engine carries a round deadline.
	traced, err := clique.New(n, clique.WithSharedCache(true), clique.WithRoundDeadline(30*time.Second))
	if err != nil {
		return err
	}
	defer traced.Close()

	var (
		rt                                  replayTrace
		bareMS, runMS, deliverMS, computeMS samples
		parkMS, unattribMS, sharedMS, self  samples
		rounds, words, maxEdge              float64
		calls, computes                     int64
		frameNs                             samples
		replays                             int
	)
	after := func(i int, o *op, r opResult, t0 time.Time, apiTime time.Duration) {
		root := b.tr.add("congestedclique."+opName(o), i, 0, t0, t0.Add(apiTime))
		// The second replay of an instance finds it warm in cache, so the
		// two replays swap order every other Route/Sort pair.
		var (
			outBare, outTraced any
			mBare, mTraced     clique.Metrics
			dBare, dTraced     time.Duration
			errBare, errTraced error
		)
		runBare := func() {
			outBare, mBare, dBare, errBare = replay(bare, o, nil)
			b.tr.add("clique.Network.Run", i, root, time.Now().Add(-dBare), time.Now())
		}
		runTraced := func() { outTraced, mTraced, dTraced, errTraced = replay(traced, o, &rt) }
		if (i/2)%2 == 0 {
			runBare()
			runTraced()
		} else {
			runTraced()
			runBare()
		}
		if err := errors.Join(errBare, errTraced); err != nil {
			b.opFailed("op %d: replay: %v", i, err)
			return
		}
		runSpan := b.tr.add("clique.Network.Run+trace", i, root, rt.start, rt.start.Add(dTraced))
		for _, rep := range []struct {
			out any
			m   clique.Metrics
		}{{outBare, mBare}, {outTraced, mTraced}} {
			if err := sameAsAPI(o, r, rep.out, rep.m); err != nil {
				b.opFailed("op %d (%s): replay differs from the API: %v", i, o.class, err)
				return
			}
		}
		bd := rt.breakdown(b.tr, i, runSpan)
		replays++
		bareMS.add(dBare)
		runMS.add(dTraced)
		deliverMS.add(bd.deliver)
		computeMS.add(bd.compute)
		parkMS.add(bd.parkPerNode)
		unattribMS.add(dTraced - bd.deliver - bd.compute)
		sharedMS.add(time.Duration(rt.computeNs.Load()))
		calls += rt.calls.Load()
		computes += rt.computes.Load()
		self.add(apiTime - dBare)
		rounds += float64(mTraced.Rounds)
		words += float64(mTraced.TotalWords)
		maxEdge = max(maxEdge, float64(mTraced.MaxEdgeWords))
		if i < 2 {
			frameNs = append(frameNs, frameNsForStats(b, r.stats()))
		}
	}
	ls, err := closedLoop(b, h, 2, next, checkPipeline, after, func(ls *loopStats, wall time.Duration) bool {
		return wall.Seconds() >= b.cfg.seconds && ls.routes >= 1 && ls.sorts >= 1
	})
	if err != nil {
		return err
	}
	ls.report(b)
	ls.classP50(b, "route_full", "sort_full")
	k := float64(max(replays, 1))
	b.m["clique.run_ms"] = runMS.mean()
	b.m["clique.deliver_ms"] = deliverMS.mean()
	b.m["clique.deliver_share"] = ratio(deliverMS.mean(), runMS.mean())
	b.m["clique.park_ms_per_node"] = parkMS.mean()
	b.m["clique.unattributed_ms"] = unattribMS.mean()
	b.m["clique.rounds"] = rounds / k
	b.m["clique.words"] = words / k
	b.m["clique.max_edge_words"] = maxEdge
	b.m["core.compute_ms"] = computeMS.mean()
	b.m["core.frame_ns_per_word"] = median(frameNs)
	b.m["bipartite.shared_ms"] = sharedMS.mean()
	b.m["bipartite.shared_hit_ratio"] = ratio(float64(calls-computes), float64(calls))
	b.m["congestedclique.self_ms"] = self.mean()
	b.m["bench.trace_overhead"] = ratio(runMS.mean(), bareMS.mean()) - 1
	return nil
}

func opName(o *op) string {
	if o.route {
		return "Clique.Route"
	}
	return "Clique.Sort"
}

// frameNsForStats times the frame codec on the frame shape an op's Stats
// describe: the busiest edge's message count per frame, at the op's mean
// words per message.
func frameNsForStats(b *bench, st cc.Stats) float64 {
	msgWords := 1
	if st.TotalMessages > 0 {
		msgWords = int((st.TotalWords + st.TotalMessages/2) / st.TotalMessages)
	}
	return frameNsPerWord(b, st.MaxEdgeMessages, msgWords)
}

// replay runs o's protocol directly on nw — core.Route or core.Sort on
// every node — optionally through traced exchangers, and returns the
// per-node outputs and the engine's metrics.
func replay(nw *clique.Network, o *op, rt *replayTrace) (any, clique.Metrics, time.Duration, error) {
	n := nw.N()
	wrap := func(nd *clique.Node) clique.Exchanger {
		if rt == nil {
			return nd
		}
		return &tracedNode{Node: nd, rt: rt}
	}
	var (
		routes [][]core.Message
		sorts  []*core.SortResult
		prog   func(*clique.Node) error
	)
	if o.route {
		routes = make([][]core.Message, n)
		prog = func(nd *clique.Node) error {
			out, err := core.Route(wrap(nd), o.msgs[nd.ID()])
			routes[nd.ID()] = out
			return err
		}
	} else {
		sorts = make([]*core.SortResult, n)
		prog = func(nd *clique.Node) error {
			res, err := core.Sort(wrap(nd), o.keys[nd.ID()])
			sorts[nd.ID()] = res
			return err
		}
	}
	if rt != nil {
		rt.reset(n)
	}
	t0 := time.Now()
	err := nw.Run(prog)
	d := time.Since(t0)
	if o.route {
		return routes, nw.Metrics(), d, err
	}
	return sorts, nw.Metrics(), d, err
}

// sameAsAPI checks that a replay reproduced the API call exactly: the same
// output, element for element, and the same Stats.
func sameAsAPI(o *op, r opResult, out any, m clique.Metrics) error {
	want := cc.Stats{
		Rounds:                m.Rounds,
		MaxEdgeWords:          m.MaxEdgeWords,
		MaxEdgeMessages:       m.MaxEdgeMessages,
		TotalMessages:         m.TotalMessages,
		TotalWords:            m.TotalWords,
		MaxStepsPerNode:       m.MaxStepsPerNode,
		MaxMemoryWordsPerNode: m.MaxMemoryWordsPerNode,
	}
	if got := r.stats(); got != want {
		return fmt.Errorf("stats %+v, replay %+v", got, want)
	}
	if o.route {
		routes := out.([][]core.Message)
		for i, row := range r.route.Delivered {
			if len(row) != len(routes[i]) {
				return fmt.Errorf("node %d received %d messages, replay %d", i, len(row), len(routes[i]))
			}
			for j, m := range row {
				g := routes[i][j]
				if m.Src != g.Src || m.Dst != g.Dst || m.Seq != g.Seq || m.Payload != g.Payload {
					return fmt.Errorf("node %d message %d is %+v, replay %+v", i, j, m, g)
				}
			}
		}
		return nil
	}
	sorts := out.([]*core.SortResult)
	for i, batch := range r.sort.Batches {
		g := sorts[i]
		if g.Total != r.sort.Total || (len(batch) > 0 && g.Start != r.sort.Starts[i]) || len(g.Batch) != len(batch) {
			return fmt.Errorf("node %d batch shape differs", i)
		}
		for j, k := range batch {
			if gk := g.Batch[j]; gk.Value != k.Value || gk.Origin != k.Origin || gk.Seq != k.Seq {
				return fmt.Errorf("node %d key %d is %+v, replay %+v", i, j, k, gk)
			}
		}
	}
	return nil
}
