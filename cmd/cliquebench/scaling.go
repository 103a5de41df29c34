package main

// The scale-out frontier curve (cliquebench -scaling-json): full
// AlgorithmAuto Route and Sort protocol runs on sparse demand at n up to
// 16384, recording wall time, allocation figures, process peak RSS and the
// model cost (rounds, total words) per point. At every size where the
// Deterministic pipeline is still affordable the output is checked with
// internal/verify and compared element by element against the Deterministic
// handle's, so the curve doubles as a correctness pin. Results merge into
// the scaling section of BENCH_protocol.json by (op, n), preserving every
// other section of the document.

import (
	"fmt"
	"reflect"
	"runtime"

	cc "congestedclique"

	"congestedclique/internal/core"
	"congestedclique/internal/experiments"
	"congestedclique/internal/verify"
	"congestedclique/internal/workload"
)

// scalingSizes is the frontier's n axis; points above -scaling-max-n are
// skipped. Sizes run ascending so the recorded VmHWM reads as "peak RSS
// after completing size n".
var scalingSizes = []int{256, 1024, 4096, 16384}

// crossCheckMaxN bounds the sizes where the Deterministic pipeline (O(n²)
// per-round scratch) is run alongside AlgorithmAuto for verification.
const crossCheckMaxN = 1024

// scalingMessages converts a workload routing instance to the public message
// type.
func scalingMessages(ri *workload.RoutingInstance) [][]cc.Message {
	msgs := make([][]cc.Message, ri.N)
	for i, row := range ri.Msgs {
		msgs[i] = make([]cc.Message, len(row))
		for j, m := range row {
			msgs[i][j] = cc.Message{Src: m.Src, Dst: m.Dst, Seq: m.Seq, Payload: int64(m.Payload)}
		}
	}
	return msgs
}

// scalingOp is one measured operation of the curve: a routing demand or a
// sorting input at one size.
type scalingOp struct {
	op     string
	route  [][]cc.Message
	values [][]int64
}

// scalingOps builds the three frontier workloads at size n: the ~2n-message
// direct-strategy route, the one-to-many broadcast-strategy route and the
// presorted-strategy sort (workload.Scale* builders).
func scalingOps(n int) ([]scalingOp, error) {
	ri, err := workload.ScaleSparseRoute(n, 1)
	if err != nil {
		return nil, err
	}
	bi, err := workload.ScaleBroadcastRoute(n)
	if err != nil {
		return nil, err
	}
	return []scalingOp{
		{op: "route-sparse", route: scalingMessages(ri)},
		{op: "route-broadcast", route: scalingMessages(bi)},
		{op: "sort-presorted", values: workload.ScalePresortedValues(n)},
	}, nil
}

// rowsEqual compares per-node output rows, treating absent and empty rows as
// equal.
func rowsEqual[T any](a, b [][]T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) == 0 && len(b[i]) == 0 {
			continue
		}
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// measureScaling runs one frontier point: a warm-up pass followed by iters
// timed runs through the shared measurement helper. When n allows the
// cross-check it also returns one over the warm-up pass's output, for the
// caller to run once every point is measured.
func measureScaling(n, iters int, o scalingOp) (experiments.ScalingBench, func() error, error) {
	auto := cc.WithAlgorithm(cc.AlgorithmAuto)
	var strategy string
	var stats cc.Stats
	var check func() error
	if o.route != nil {
		res, err := cc.Route(n, o.route, auto)
		if err != nil {
			return experiments.ScalingBench{}, nil, err
		}
		strategy, stats = res.Strategy.String(), res.Stats
		check = func() error { return crossCheckRoute(n, o.route, res) }
	} else {
		res, err := cc.Sort(n, o.values, auto)
		if err != nil {
			return experiments.ScalingBench{}, nil, err
		}
		strategy, stats = res.Strategy.String(), res.Stats
		check = func() error { return crossCheckSort(n, o.values, res) }
	}
	if n > crossCheckMaxN {
		check = nil
	}

	m, err := experiments.MeasureOp(iters, func() error {
		if o.route != nil {
			_, opErr := cc.Route(n, o.route, auto)
			return opErr
		}
		_, opErr := cc.Sort(n, o.values, auto)
		return opErr
	})
	if err != nil {
		return experiments.ScalingBench{}, nil, err
	}
	return experiments.ScalingBench{
		Op:            o.op,
		N:             n,
		Strategy:      strategy,
		Rounds:        stats.Rounds,
		TotalMessages: stats.TotalMessages,
		TotalWords:    stats.TotalWords,
		Iterations:    iters,
		NsPerOp:       m.NsPerOp,
		AllocsPerOp:   m.AllocsPerOp,
		BytesPerOp:    m.BytesPerOp,
		PeakRSSBytes:  experiments.PeakRSSBytes(),
	}, check, nil
}

// crossCheckRoute verifies an AlgorithmAuto route result with
// internal/verify and against the Deterministic handle's deliveries.
func crossCheckRoute(n int, msgs [][]cc.Message, res *cc.RouteResult) error {
	toCore := func(rows [][]cc.Message) [][]core.Message {
		out := make([][]core.Message, n)
		for i, row := range rows {
			for _, m := range row {
				out[i] = append(out[i], core.Message{Src: m.Src, Dst: m.Dst, Seq: m.Seq, Payload: m.Payload})
			}
		}
		return out
	}
	if err := verify.Routing(toCore(msgs), toCore(res.Delivered)); err != nil {
		return err
	}
	det, err := cc.Route(n, msgs)
	if err != nil {
		return fmt.Errorf("deterministic cross-check: %w", err)
	}
	if !rowsEqual(res.Delivered, det.Delivered) {
		return fmt.Errorf("AlgorithmAuto deliveries diverge from the Deterministic pipeline")
	}
	return nil
}

// crossCheckSort verifies an AlgorithmAuto sort result with internal/verify
// and against the Deterministic handle's batches.
func crossCheckSort(n int, values [][]int64, res *cc.SortResult) error {
	input := make([][]core.Key, n)
	for i, row := range values {
		for j, v := range row {
			input[i] = append(input[i], core.Key{Value: v, Origin: i, Seq: j})
		}
	}
	results := make([]*core.SortResult, n)
	for i := range results {
		results[i] = &core.SortResult{Start: res.Starts[i], Total: res.Total}
		for _, k := range res.Batches[i] {
			results[i].Batch = append(results[i].Batch, core.Key{Value: k.Value, Origin: k.Origin, Seq: k.Seq})
		}
	}
	if err := verify.Sorting(input, results); err != nil {
		return err
	}
	det, err := cc.Sort(n, values)
	if err != nil {
		return fmt.Errorf("deterministic cross-check: %w", err)
	}
	if res.Total != det.Total || !reflect.DeepEqual(res.Starts, det.Starts) || !rowsEqual(res.Batches, det.Batches) {
		return fmt.Errorf("AlgorithmAuto batches diverge from the Deterministic pipeline")
	}
	return nil
}

// runScalingBench measures the scale-out frontier at every size up to maxN
// and merges the resulting curve into the scaling section of the document at
// path, leaving the other sections untouched.
func runScalingBench(path string, maxN int) error {
	prev, err := experiments.ReadProtocolDoc(path)
	if err != nil {
		return err
	}
	if prev.Tool == "" { // fresh document (standalone artifact runs)
		prev.Tool = "cliquebench -scaling-json"
		prev.Schema = "congestedclique/bench-protocol/v1"
	}
	sec := prev.Scaling
	if sec == nil {
		sec = &experiments.ScalingSection{}
	}
	sec.Tool = "cliquebench -scaling-json"
	sec.Schema = "congestedclique/bench-scaling/v1"
	sec.Note = fmt.Sprintf("full AlgorithmAuto protocol runs (one-shot handles) per point; "+
		"peak_rss_bytes is the process VmHWM sampled after the point and is monotone across one invocation "+
		"(sizes run ascending, so it reads as peak RSS after completing size n); verified means the output "+
		"passed internal/verify and matched the Deterministic pipeline's element by element on the identical "+
		"instance, done at every n <= %d where the pipeline's O(n^2) scratch is affordable; measured with "+
		"%d CPUs, GOMAXPROCS=%d", crossCheckMaxN, runtime.NumCPU(), runtime.GOMAXPROCS(0))

	type point struct {
		run   experiments.ScalingBench
		check func() error
	}
	var points []point
	for _, n := range scalingSizes {
		if n > maxN {
			continue
		}
		ops, err := scalingOps(n)
		if err != nil {
			return err
		}
		iters := 3
		if n >= 4096 {
			iters = 1
		}
		for _, o := range ops {
			run, check, err := measureScaling(n, iters, o)
			if err != nil {
				return fmt.Errorf("%s n=%d: %w", o.op, n, err)
			}
			points = append(points, point{run, check})
		}
	}
	// Cross-check only after every point is measured: the Deterministic
	// pipeline's O(n²) scratch would otherwise raise the peak RSS every
	// later point records.
	for _, p := range points {
		run := p.run
		if p.check != nil {
			if err := p.check(); err != nil {
				return fmt.Errorf("%s n=%d: %w", run.Op, run.N, err)
			}
			run.Verified = true
		}
		sec.MergeScalingRun(run)
		fmt.Printf("scaling %-16s n=%-6d %-10s rounds=%-2d words=%-8d %12d ns/op %10d B/op %8d allocs/op rss=%d MiB verified=%v\n",
			run.Op, run.N, run.Strategy, run.Rounds, run.TotalWords,
			run.NsPerOp, run.BytesPerOp, run.AllocsPerOp, run.PeakRSSBytes>>20, run.Verified)
	}
	prev.Scaling = sec
	return experiments.WriteProtocolDoc(path, prev)
}
