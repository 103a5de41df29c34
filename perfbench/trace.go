package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"congestedclique/internal/clique"
	"congestedclique/internal/core"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's exported entry point. Spans of one operation share Op; Parent is
// the ID of the enclosing span (0 for an operation's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span and returns its ID. A nil tracer records nothing.
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	return id
}

func (t *tracer) write(dir, file string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// nodeRec is one node's barrier log for a replayed run: when it entered
// and left each round's Exchange, in nanoseconds since the run started.
// Each node appends only to its own record.
type nodeRec struct {
	enter, exit []int64
	_           [64]byte // keep neighbouring records off one cache line
}

// replayTrace is the per-run state shared by the traced exchangers of one
// replayed engine run.
type replayTrace struct {
	start     time.Time
	nodes     []nodeRec
	calls     atomic.Int64 // SharedCompute calls
	computes  atomic.Int64 // ... whose closure actually ran
	computeNs atomic.Int64 // time inside those closures
}

func (rt *replayTrace) reset(n int) {
	if len(rt.nodes) != n {
		rt.nodes = make([]nodeRec, n)
	}
	for i := range rt.nodes {
		rt.nodes[i].enter = rt.nodes[i].enter[:0]
		rt.nodes[i].exit = rt.nodes[i].exit[:0]
	}
	rt.calls.Store(0)
	rt.computes.Store(0)
	rt.computeNs.Store(0)
	rt.start = time.Now()
}

func (rt *replayTrace) now() int64 { return int64(time.Since(rt.start)) }

// tracedNode is the engine node as the protocol sees it during a traced
// replay: every Exchanger and FlatExchanger method is forwarded to the
// embedded *clique.Node, and the barrier calls and the keyed shared
// computations (the only ones the protocols use) are timed on the way
// through.
type tracedNode struct {
	*clique.Node
	rt *replayTrace
}

func (w *tracedNode) Exchange() (clique.Inbox, error) {
	r := &w.rt.nodes[w.ID()]
	r.enter = append(r.enter, w.rt.now())
	in, err := w.Node.Exchange()
	r.exit = append(r.exit, w.rt.now())
	return in, err
}

func (w *tracedNode) ExchangeFlat() (clique.FlatInbox, error) {
	r := &w.rt.nodes[w.ID()]
	r.enter = append(r.enter, w.rt.now())
	in, err := w.Node.ExchangeFlat()
	r.exit = append(r.exit, w.rt.now())
	return in, err
}

func (w *tracedNode) timed(f func() interface{}) func() interface{} {
	w.rt.calls.Add(1)
	return func() interface{} {
		t0 := time.Now()
		v := f()
		w.rt.computeNs.Add(int64(time.Since(t0)))
		w.rt.computes.Add(1)
		return v
	}
}

func (w *tracedNode) SharedComputeKeyed(key clique.SharedKey, f func() interface{}) interface{} {
	return w.Node.SharedComputeKeyed(key, w.timed(f))
}

var _ clique.FlatExchanger = (*tracedNode)(nil)

// runBreakdown splits one traced engine run by round. A round's delivery is
// the interval from the last node entering its barrier to the first node
// leaving it; its compute phase runs from the previous round's first exit
// (the run's start for round 0) to that last entry.
type runBreakdown struct {
	deliver, compute, parkPerNode time.Duration
	rounds                        int
}

func (rt *replayTrace) breakdown(tr *tracer, op, parent int) runBreakdown {
	var bd runBreakdown
	var park int64
	for i := range rt.nodes {
		r := &rt.nodes[i]
		if len(r.enter) > bd.rounds {
			bd.rounds = len(r.enter)
		}
		for k := range r.exit {
			park += r.exit[k] - r.enter[k]
		}
	}
	if n := len(rt.nodes); n > 0 {
		bd.parkPerNode = time.Duration(park / int64(n))
	}
	prevExit := int64(0)
	for k := 0; k < bd.rounds; k++ {
		lastEnter, firstExit := int64(-1), int64(-1)
		for i := range rt.nodes {
			r := &rt.nodes[i]
			if k < len(r.enter) && r.enter[k] > lastEnter {
				lastEnter = r.enter[k]
			}
			if k < len(r.exit) && (firstExit < 0 || r.exit[k] < firstExit) {
				firstExit = r.exit[k]
			}
		}
		if lastEnter < 0 || firstExit < lastEnter {
			continue
		}
		bd.compute += time.Duration(lastEnter - prevExit)
		bd.deliver += time.Duration(firstExit - lastEnter)
		if tr != nil {
			base := rt.start
			tr.add("core.compute", op, parent, base.Add(time.Duration(prevExit)), base.Add(time.Duration(lastEnter)))
			tr.add("clique.deliver", op, parent, base.Add(time.Duration(lastEnter)), base.Add(time.Duration(firstExit)))
		}
		prevExit = firstExit
	}
	return bd
}

// frameNsPerWord times core.AppendFrame + core.DecodeFrame on frames of
// count messages of msgWords words each and returns nanoseconds per framed
// word (count and length slots included). A frame that does not decode
// back to its messages is a correctness problem.
func frameNsPerWord(b *bench, count, msgWords int) float64 {
	if count < 1 {
		count = 1
	}
	if msgWords < 1 {
		msgWords = 1
	}
	msgs := make([][]clique.Word, count)
	for i := range msgs {
		msgs[i] = make([]clique.Word, msgWords)
		for j := range msgs[i] {
			msgs[i][j] = clique.Word(i*msgWords + j)
		}
	}
	var (
		frame []clique.Word
		dec   [][]clique.Word
		err   error
	)
	frameWords := 1 + count*(1+msgWords)
	reps := 1 + (1<<20)/frameWords
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		frame = core.AppendFrame(frame[:0], msgs...)
		dec, err = core.DecodeFrame(dec[:0], frame)
		if err != nil || len(dec) != count {
			b.problem("frame of %d messages did not decode back: %d messages, %v", count, len(dec), err)
			return 0
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(reps*frameWords)
}
