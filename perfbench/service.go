package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"

	cc "congestedclique"

	"congestedclique/internal/core"
	"congestedclique/internal/service"
	"congestedclique/internal/workload"
)

// service-open: an open loop against an in-process cliqued server on
// 127.0.0.1 through two service.Dial clients. The load is small batchable
// Routes plus one full-load Sort in every serviceSortEvery requests, at the
// fixed rate serviceRate: about a third of the closed-loop saturation
// throughput measured with --saturate (NOTES.md records the measurement).
// The serviceBurst Routes after each Sort are due right behind it, so they
// wait for the whole Sort: route_ms_p90 measures that head-of-line wait,
// and it scales with the Sort's length instead of with where a Route
// happens to land inside it.
const (
	serviceN         = 64
	serviceRate      = 150.0 // requests per second
	serviceSortEvery = 24
	serviceBurst     = 4
	// burstGap spaces the burst Routes behind their Sort, so each reaches
	// the server's queue after it.
	burstGap       = time.Millisecond
	serviceClients = 2
	// serviceWorkers is the server's MaxConcurrency. With one worker, engine
	// runs never share the 2 cores with each other, so a heavy Sort blocks
	// the small Routes queued behind it for its whole length: the
	// head-of-line wait shows as queueing rather than as CPU contention,
	// which moved latency 20-45% between runs with two workers.
	serviceWorkers    = 1
	serviceBatchOps   = 8
	servicePlanCache  = 16
	serviceQueueDepth = 64
	// serviceSortPool distinct full-load Sorts are cycled through the Sort
	// slots. Each is run in-process and verified before the timed window,
	// and every served Sort is compared with that verified result by
	// digest, so no Sort reply has to be kept. The pool is larger than the
	// plan cache, so cycling it never produces a hit.
	serviceSortPool = 32
	// serviceLateBoundMS fails the run when the generator's p99 lateness
	// exceeds it: past that, the offered load is no longer the schedule.
	serviceLateBoundMS = 10.0
	// The first serviceCostPrefix requests give max_edge_words.
	serviceCostPrefix = 256
	// smallRouteSources senders of 1-3 messages each make one small Route.
	smallRouteSources = 8
)

// smallRoute builds one small batchable Route.
func smallRoute(n int, seed int64) *op {
	rng := rand.New(rand.NewSource(seed))
	msgs := make([][]core.Message, n)
	for _, src := range rng.Perm(n)[:min(smallRouteSources, n)] {
		for j, dst := range rng.Perm(n)[:1+rng.Intn(3)] {
			msgs[src] = append(msgs[src], core.Message{Src: src, Dst: dst, Seq: j, Payload: rng.Int63n(1 << 40)})
		}
	}
	return routeOp("route_small", msgs)
}

func fullSort(n int, seed int64) (*op, error) {
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

func isSortSlot(i int) bool { return i%serviceSortEvery == 0 }

// dueOffset is request i's due time relative to the schedule's start: slot
// i at the fixed interval, except that the burst Routes share their Sort's
// slot, burstGap apart.
func dueOffset(i int, interval time.Duration) time.Duration {
	if pos := i % serviceSortEvery; pos >= 1 && pos <= serviceBurst {
		return time.Duration(i-pos)*interval + time.Duration(pos)*burstGap
	}
	return time.Duration(i) * interval
}

// serviceLoad is one run's request schedule plus what every served Sort
// must match.
type serviceLoad struct {
	reqs []*op
	want map[*op]uint64 // verified in-process result digest per pool Sort
	edge map[*op]int    // in-process max edge load per pool Sort
}

// newServiceLoad builds total requests and runs the Sort pool in-process
// on ref, verifying every result with internal/verify.
func newServiceLoad(b *bench, ref *cc.Clique, n, total int) (*serviceLoad, error) {
	l := &serviceLoad{reqs: make([]*op, total), want: map[*op]uint64{}, edge: map[*op]int{}}
	pool := make([]*op, serviceSortPool)
	for k := range pool {
		// Pool seeds sit above every request index the schedule can use.
		o, err := fullSort(n, instanceSeed(b.cfg.seed, 1<<30+k))
		if err != nil {
			return nil, err
		}
		r, err := o.call(context.Background(), ref)
		if err != nil {
			return nil, fmt.Errorf("in-process reference Sort: %w", err)
		}
		if err := o.check(r); err != nil {
			b.problem("in-process reference Sort %d: verification: %v", k, err)
		}
		b.noteEdgeLoad("in-process sort_full", r.stats())
		pool[k], l.want[o], l.edge[o] = o, digestSort(r.sort), r.stats().MaxEdgeWords
	}
	for i := range l.reqs {
		if isSortSlot(i) {
			l.reqs[i] = pool[(i/serviceSortEvery)%len(pool)]
		} else {
			l.reqs[i] = smallRoute(n, instanceSeed(b.cfg.seed, i))
		}
	}
	return l, nil
}

// digestSort folds a sort result (total, and every batch's start and keys)
// into one FNV-1a hash.
func digestSort(r *cc.SortResult) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v int64) {
		for k := range buf {
			buf[k] = byte(v >> (8 * k))
		}
		h.Write(buf[:])
	}
	word(int64(r.Total))
	for i, batch := range r.Batches {
		word(int64(len(batch)))
		if len(batch) > 0 {
			word(int64(r.Starts[i]))
		}
		for _, k := range batch {
			word(k.Value)
			word(int64(k.Origin))
			word(int64(k.Seq))
		}
	}
	return h.Sum64()
}

// svc is one running server with its clients.
type svc struct {
	srv     *service.Server
	served  chan error
	clients []*service.Client
}

func startService(n int) (*svc, error) {
	srv, err := service.NewServer(service.Config{
		N:                 n,
		Algorithm:         cc.AlgorithmAuto,
		MaxConcurrency:    serviceWorkers,
		BatchMaxOps:       serviceBatchOps,
		PlanCacheCapacity: servicePlanCache,
		QueueDepth:        serviceQueueDepth,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	s := &svc{srv: srv, served: make(chan error, 1)}
	go func() { s.served <- srv.Serve(ln) }()
	for c := 0; c < serviceClients; c++ {
		cl, err := service.Dial(ln.Addr().String())
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, cl)
	}
	return s, nil
}

// close shuts the server down and waits until Serve has returned.
func (s *svc) close() {
	for _, cl := range s.clients {
		cl.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	<-s.served
}

// callService issues o through cl and returns the reply in the API's shape.
func callService(cl *service.Client, o *op) (opResult, error) {
	if o.route {
		rep, err := cl.Route(o.ccMsgs, nil)
		if err != nil {
			return opResult{}, err
		}
		return opResult{route: &cc.RouteResult{Delivered: rep.Delivered, Strategy: rep.Strategy}}, nil
	}
	rep, err := cl.Sort(o.values, nil)
	if err != nil {
		return opResult{}, err
	}
	return opResult{sort: &cc.SortResult{Batches: rep.Batches, Starts: rep.Starts, Total: rep.Total, Strategy: rep.Strategy}}, nil
}

// openResult is one open-loop request's outcome. A Sort keeps only the
// digest of its reply.
type openResult struct {
	late, fromDue, rtt time.Duration
	route              *cc.RouteResult
	digest             uint64
	err                error
}

// openLoop offers reqs on the fixed schedule start + dueOffset(i, 1/rate),
// whatever the server's state: request i is sent by its client's generator at its due
// time (never earlier), on a goroutine of its own so a slow reply never
// delays a later send. Latency is timed from the due time, so a stall
// charges every request it holds back. Two generators (one per client
// connection) share the schedule round-robin. onReply, when set, runs on
// the request's goroutine after its reply.
func openLoop(s *svc, reqs []*op, rate float64, onReply func(i int, sent, end time.Time)) ([]openResult, time.Duration) {
	interval := time.Duration(float64(time.Second) / rate)
	out := make([]openResult, len(reqs))
	start := time.Now().Add(10 * time.Millisecond)
	var gens, inflight sync.WaitGroup
	for c, cl := range s.clients {
		gens.Add(1)
		go func(c int, cl *service.Client) {
			defer gens.Done()
			for i := c; i < len(reqs); i += len(s.clients) {
				due := start.Add(dueOffset(i, interval))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				inflight.Add(1)
				go func(i int, due time.Time) {
					defer inflight.Done()
					sent := time.Now()
					r, err := callService(cl, reqs[i])
					end := time.Now()
					res := openResult{late: sent.Sub(due), fromDue: end.Sub(due), rtt: end.Sub(sent), route: r.route, err: err}
					if err == nil && r.sort != nil {
						res.digest = digestSort(r.sort)
					}
					out[i] = res
					if onReply != nil {
						onReply(i, sent, end)
					}
				}(i, due)
			}
		}(c, cl)
	}
	gens.Wait()
	inflight.Wait()
	last := start
	for i := range out {
		if e := start.Add(dueOffset(i, interval)).Add(out[i].fromDue); e.After(last) {
			last = e
		}
	}
	return out, last.Sub(start)
}

// check verifies request i's reply. A Route is checked with
// internal/verify and, when reference is set, compared bit for bit with
// the same instance run in-process on ref; a Sort must match its pool
// instance's verified in-process result. It returns the in-process max
// edge load (the wire reply carries no Stats), 0 when none was run.
func (l *serviceLoad) check(b *bench, ref *cc.Clique, i int, r openResult, reference bool) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	o := l.reqs[i]
	if !o.route {
		if r.digest != l.want[o] {
			return 0, fmt.Errorf("served Sort differs from its verified in-process result")
		}
		return l.edge[o], nil
	}
	res := opResult{route: r.route}
	if b.cfg.corrupt && i == 1 { // the schedule's first Route
		corruptResult(res)
	}
	if err := o.check(res); err != nil {
		return 0, fmt.Errorf("verification: %w", err)
	}
	if !reference {
		return 0, nil
	}
	want, err := o.call(context.Background(), ref)
	if err != nil {
		return 0, fmt.Errorf("in-process reference: %w", err)
	}
	for d, row := range want.route.Delivered {
		if len(row) != len(r.route.Delivered[d]) {
			return 0, fmt.Errorf("served reply differs from the in-process result at node %d", d)
		}
		for j, m := range row {
			if m != r.route.Delivered[d][j] {
				return 0, fmt.Errorf("served reply differs from the in-process result at node %d message %d", d, j)
			}
		}
	}
	b.noteEdgeLoad("in-process route_small", want.stats())
	return want.stats().MaxEdgeWords, nil
}

// missMS is the latency recorded for a failed or shed request: it misses
// every latency limit.
var missMS = math.Inf(1)

// startWarmService starts a server with its clients and runs one schedule
// cycle of warm-up requests, from negative seeds the schedule never uses.
func startWarmService(b *bench, n int) (*svc, error) {
	s, err := startService(n)
	if err != nil {
		return nil, err
	}
	for j := 0; j < serviceSortEvery; j++ {
		o := smallRoute(n, instanceSeed(b.cfg.seed, -1-j))
		if isSortSlot(j) {
			o, err = fullSort(n, instanceSeed(b.cfg.seed, -1-j))
		}
		if err == nil {
			_, err = callService(s.clients[j%len(s.clients)], o)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("service warm-up: %w", err)
		}
	}
	return s, nil
}

func runService(b *bench) error {
	n := b.cfg.n
	if n == 0 {
		n = serviceN
	}
	s, err := setupMedian(b, func() (*svc, error) { return startWarmService(b, n) }, func(s *svc) { s.close() })
	if err != nil {
		return err
	}
	defer s.close()
	ref, err := cc.New(n, cc.WithAlgorithm(cc.AlgorithmAuto), cc.WithPlanCache(servicePlanCache))
	if err != nil {
		return err
	}
	defer ref.Close()

	if b.cfg.trace {
		return serviceTraced(b, s, ref, n, b.cfg.seconds, true)
	}
	// The schedule covers the timed interval and holds at least 2·minOps
	// Sorts, so sort_ms_p90 has 20 samples beyond it at the default floor.
	l, err := newServiceLoad(b, ref, n, max(int(b.cfg.seconds*serviceRate), serviceSortEvery*2*b.cfg.minOps))
	if err != nil {
		return err
	}
	st0 := s.srv.Stats()
	rt0 := readRuntime()
	out, window := openLoop(s, l.reqs, serviceRate, nil)
	rt1 := readRuntime()
	st1 := s.srv.Stats()

	var routeMS, sortMS, lateMS samples
	ok, edgeWords := 0, 0.0
	for i, r := range out {
		o := l.reqs[i]
		b.attempted++
		lateMS.add(r.late)
		lat := ms(r.fromDue)
		edge, err := l.check(b, ref, i, r, true)
		if i < serviceCostPrefix {
			edgeWords += float64(edge)
		}
		if err != nil {
			b.opFailed("request %d (%s): %v", i, o.class, err)
			lat = missMS
		} else {
			ok++
		}
		if o.route {
			routeMS = append(routeMS, lat)
		} else {
			sortMS = append(sortMS, lat)
		}
	}
	late := lateMS.quantile(0.99)
	if late > serviceLateBoundMS {
		b.problem("open-loop generator ran %.2f ms late at p99, bound %.1f ms", late, serviceLateBoundMS)
	}
	b.m["route_ms_p50"] = routeMS.quantile(0.5)
	b.m["route_ms_p90"] = routeMS.quantile(0.9)
	b.m["sort_ms_p50"] = sortMS.quantile(0.5)
	b.m["sort_ms_p90"] = sortMS.quantile(0.9)
	b.m["ops_per_s"] = ratio(float64(ok), window.Seconds())
	b.m["rounds_per_op"] = ratio(float64(st1.Rounds-st0.Rounds), float64(ok))
	b.m["words_per_op"] = ratio(float64(st1.TotalWords-st0.TotalWords), float64(ok))
	b.m["max_edge_words"] = ratio(edgeWords, float64(min(serviceCostPrefix, len(out))))
	b.m["alloc_mib_per_op"] = ratio((rt1.allocBytes-rt0.allocBytes)/(1<<20), float64(len(out)))
	b.m["bench.late_ms_p99"] = late
	for k, v := range b.m {
		if math.IsInf(v, 1) {
			// A latency quantile that lands on a failed request: report the
			// whole window, the longest wait the run can express.
			b.m[k] = ms(window)
		}
	}
	return nil
}

// serviceLayer measures the service layer for a workload that does not
// drive the service itself: sparse-recurring's traced run calls it, since
// service-open is not one of the benchmark's workloads (NOTES.md says why).
// It starts its own server at serviceN and reports only the service
// layer's metrics.
func serviceLayer(b *bench, seconds float64) error {
	s, err := startWarmService(b, serviceN)
	if err != nil {
		return err
	}
	defer s.close()
	ref, err := cc.New(serviceN, cc.WithAlgorithm(cc.AlgorithmAuto), cc.WithPlanCache(servicePlanCache))
	if err != nil {
		return err
	}
	defer ref.Close()
	return serviceTraced(b, s, ref, serviceN, seconds, false)
}

// serviceTraced is the traced measurement of the service layer. It first
// measures each class's unloaded serial round trip and the same instance's
// in-process time, then offers the open loop for about seconds and
// reports how far loaded round trips exceed the unloaded one. Spans cover
// every client call; the loop's first quarter records none, so the
// overhead of span recording shows as the latency difference. own is set
// when this is service-open's own traced run, which also reports the
// runtime, frame and trace-overhead metrics.
func serviceTraced(b *bench, s *svc, ref *cc.Clique, n int, seconds float64, own bool) error {
	const serial = 15
	l, err := newServiceLoad(b, ref, n, max(int(seconds*serviceRate*3/4), 2*serviceSortEvery))
	if err != nil {
		return err
	}
	cl := s.clients[0]
	var pingMS, routeRTT, sortRTT, routeIn, sortIn samples
	ctx := context.Background()
	for j := 0; j < serial; j++ {
		t0 := time.Now()
		if _, err := cl.Ping(); err != nil {
			return err
		}
		pingMS.add(time.Since(t0))
		b.tr.add("service.Client.Ping", -1-j, 0, t0, time.Now())
		// Unloaded Routes come from their own seed domain; unloaded Sorts
		// are pool instances, checked against their verified results.
		for _, o := range []*op{smallRoute(n, instanceSeed(b.cfg.seed, -1000-j)), l.reqs[0]} {
			t0 := time.Now()
			r, err := callService(cl, o)
			rtt := time.Since(t0)
			b.tr.add("service.Client."+opName(o)[len("Clique."):], -1-j, 0, t0, t0.Add(rtt))
			b.attempted++
			if err == nil {
				if o.route {
					err = o.check(r)
				} else if digestSort(r.sort) != l.want[o] {
					err = fmt.Errorf("served Sort differs from its verified in-process result")
				}
			}
			if err != nil {
				b.opFailed("unloaded %s: %v", o.class, err)
				continue
			}
			t1 := time.Now()
			if _, err := o.call(ctx, ref); err != nil {
				b.opFailed("in-process %s: %v", o.class, err)
				continue
			}
			in := time.Since(t1)
			b.tr.add("congestedclique."+opName(o), -1-j, 0, t1, t1.Add(in))
			if o.route {
				routeRTT.add(rtt)
				routeIn.add(in)
			} else {
				sortRTT.add(rtt)
				sortIn.add(in)
			}
		}
	}
	b.m["service.ping_rtt_ms_p50"] = pingMS.quantile(0.5)
	b.m["service.rtt_ms_p50"] = routeRTT.quantile(0.5)
	b.m["service.sort_rtt_ms_p50"] = sortRTT.quantile(0.5)
	b.m["service.overhead_ms"] = routeRTT.quantile(0.5) - routeIn.quantile(0.5)
	b.m["service.sort_overhead_ms"] = sortRTT.quantile(0.5) - sortIn.quantile(0.5)
	b.m["congestedclique.route_small_ms_p50"] = routeIn.quantile(0.5)
	if own {
		b.m["congestedclique.sort_full_ms_p50"] = sortIn.quantile(0.5)
	}

	tracedFrom := len(l.reqs) / 4
	st0 := s.srv.Stats()
	rt0 := readRuntime()
	out, _ := openLoop(s, l.reqs, serviceRate, func(i int, sent, end time.Time) {
		if i >= tracedFrom {
			b.tr.add("service.Client."+opName(l.reqs[i])[len("Clique."):], i, 0, sent, end)
		}
	})
	rt1 := readRuntime()
	st1 := s.srv.Stats()
	var excess, lateMS, untraced, traced samples
	routes := 0
	for i, r := range out {
		o := l.reqs[i]
		b.attempted++
		lateMS.add(r.late)
		if _, err := l.check(b, ref, i, r, false); err != nil {
			b.opFailed("request %d (%s): %v", i, o.class, err)
			continue
		}
		if !o.route {
			continue
		}
		routes++
		excess = append(excess, ms(r.rtt)-routeRTT.quantile(0.5))
		if i < tracedFrom {
			untraced.add(r.fromDue)
		} else {
			traced.add(r.fromDue)
		}
	}
	b.m["service.queue_excess_ms_p50"] = excess.quantile(0.5)
	b.m["service.queue_excess_ms_p90"] = excess.quantile(0.9)
	b.m["service.shed_ratio"] = ratio(float64(st1.SheddedOps-st0.SheddedOps), float64(len(out)))
	b.m["service.batched_ratio"] = ratio(float64(st1.BatchedOps-st0.BatchedOps), float64(routes))
	b.m["bench.late_ms_p99"] = lateMS.quantile(0.99)
	if own {
		b.m["bench.trace_overhead"] = ratio(traced.quantile(0.5), untraced.quantile(0.5)) - 1
		b.m["runtime.gc_cpu_fraction"] = ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU)
		b.m["runtime.gc_per_op"] = ratio(rt1.gcCycles-rt0.gcCycles, float64(len(out)))
		// A small Route's busiest wire row: up to 3 messages of 3 words.
		b.m["core.frame_ns_per_word"] = frameNsPerWord(b, 3, 3)
	}
	if late := b.m["bench.late_ms_p99"]; late > serviceLateBoundMS {
		b.problem("open-loop generator ran %.2f ms late at p99, bound %.1f ms", late, serviceLateBoundMS)
	}
	return nil
}
