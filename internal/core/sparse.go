package core

import (
	"fmt"

	"congestedclique/internal/clique"
)

// This file implements the sparse demand representation that carries a
// routing instance through planning, census and execution without any O(n²)
// structure. The dense [][]Message staging a session performs is already
// O(n + total) — row headers plus the messages themselves — but the protocol
// executors behind it were not: directRoute and broadcastRoute allocate a
// dense length-n per-node slice, the charged census keeps a length-n count
// array per node, and the blocking scheduler parks one goroutine per node.
// At n=16384 those per-node dense structures multiply out to gigabytes.
//
// SparseDemand replaces the row-of-slices view with a per-source adjacency:
// an ascending active-source list, row offsets, and one flat entry array of
// (dst, seq, payload) triples in submission order. Everything downstream —
// PlanRouteSparse, the sparse fingerprint, and the step-mode executors in
// sparse_route.go / sparse_sort.go — works off this single O(active + total)
// structure plus O(n) index tables, never a per-node dense array.
//
// Ownership and pooling rules (see ARCHITECTURE.md):
//
//   - A SparseDemand is immutable after NewSparseDemand and owns its backing
//     arrays; it borrows nothing from the caller's rows, so the session may
//     recycle its staging buffers while a run is in flight.
//   - PlanRouteSparse shares the plannerScratch pool with PlanRoute, so the
//     sparse and dense planners have identical allocation discipline and —
//     pinned by tests — produce identical RoutePlan verdicts, including the
//     Reason strings.
//   - The per-run executors allocate per-node state proportional to that
//     node's own traffic; the only O(n) allocations are flat index tables
//     (row-of pointers, result headers), never n×n.

// SparseEntry is one message of a sparse demand row: the destination, the
// caller's sequence number and the payload word. The source is implicit (the
// row the entry belongs to).
type SparseEntry struct {
	Dst     int32
	Seq     int32
	Payload clique.Word
}

// SparseDemand is the per-source adjacency form of a routing instance:
// Sources lists the active source nodes in ascending order, row i of the
// adjacency is Entries[RowStart[i]:RowStart[i+1]] in submission order.
type SparseDemand struct {
	// Sources lists the nodes holding at least one message, ascending.
	Sources []int32
	// RowStart has len(Sources)+1 offsets into Entries.
	RowStart []int32
	// Entries holds every message, grouped by source row, submission order
	// preserved within each row.
	Entries []SparseEntry

	n     int
	rowOf []int32 // node id -> row index, -1 for inactive nodes (O(n))
}

// NewSparseDemand converts a dense-row instance into its sparse form. msgs is
// indexed by source (rows beyond len(msgs) are empty); every message must
// carry the row's source and an in-range destination — the same Problem 3.1
// shape the session validator enforces.
func NewSparseDemand(n int, msgs [][]Message) (*SparseDemand, error) {
	sd := &SparseDemand{n: n, rowOf: make([]int32, n)}
	for i := range sd.rowOf {
		sd.rowOf[i] = -1
	}
	total := 0
	for src := 0; src < n && src < len(msgs); src++ {
		total += len(msgs[src])
	}
	sd.Entries = make([]SparseEntry, 0, total)
	for src := 0; src < n && src < len(msgs); src++ {
		row := msgs[src]
		if len(row) == 0 {
			continue
		}
		sd.rowOf[src] = int32(len(sd.Sources))
		sd.Sources = append(sd.Sources, int32(src))
		sd.RowStart = append(sd.RowStart, int32(len(sd.Entries)))
		for _, m := range row {
			if m.Src != src {
				return nil, fmt.Errorf("core: sparse demand: message (%d->%d) in row %d", m.Src, m.Dst, src)
			}
			if m.Dst < 0 || m.Dst >= n {
				return nil, fmt.Errorf("core: sparse demand: destination %d out of range (n=%d)", m.Dst, n)
			}
			sd.Entries = append(sd.Entries, SparseEntry{Dst: int32(m.Dst), Seq: int32(m.Seq), Payload: m.Payload})
		}
	}
	sd.RowStart = append(sd.RowStart, int32(len(sd.Entries)))
	return sd, nil
}

// N returns the clique size the demand was built for.
func (sd *SparseDemand) N() int { return sd.n }

// Total returns the number of messages in the instance.
func (sd *SparseDemand) Total() int { return len(sd.Entries) }

// Row returns node's entries in submission order (nil for inactive nodes).
func (sd *SparseDemand) Row(node int) []SparseEntry {
	r := sd.rowOf[node]
	if r < 0 {
		return nil
	}
	return sd.Entries[sd.RowStart[r]:sd.RowStart[r+1]]
}

// Messages reconstructs the dense-row form of the instance: msgs[i] holds
// node i's messages in submission order, with Src filled in. It is the
// round-trip twin of NewSparseDemand, used by the fuzz harness and by tests
// that cross-check the sparse path against the dense reference.
func (sd *SparseDemand) Messages() [][]Message {
	msgs := make([][]Message, sd.n)
	for r, src := range sd.Sources {
		row := sd.Entries[sd.RowStart[r]:sd.RowStart[r+1]]
		out := make([]Message, len(row))
		for j, e := range row {
			out[j] = Message{Src: int(src), Dst: int(e.Dst), Seq: int(e.Seq), Payload: e.Payload}
		}
		msgs[src] = out
	}
	return msgs
}

// sparseRowHash is routeRowHash over a sparse row: the order-sensitive FNV
// fold of the row's destination sequence.
func sparseRowHash(row []SparseEntry) uint64 {
	h := uint64(fnvOffset64)
	for _, e := range row {
		h = fnvFold(h, uint64(e.Dst))
	}
	return h
}

// Fingerprint computes the routing-demand fingerprint of the instance,
// identical to RouteFingerprint of the dense form: per-source row hashes
// folded in node order, empty rows included.
func (sd *SparseDemand) Fingerprint() Fingerprint {
	h := uint64(fnvOffset64)
	for i := 0; i < sd.n; i++ {
		row := sd.Row(i)
		h = foldRows(h, len(row), sparseRowHash(row))
	}
	return Fingerprint{kind: fingerprintRoute, n: sd.n, Hash: h}
}

// PlanRouteSparse is PlanRoute over the sparse representation: the identical
// census, the identical dispatch thresholds and the identical Reason strings,
// computed from the adjacency without materialising dense rows. Tests and the
// fuzz harness pin PlanRouteSparse(sd) == PlanRoute(n, sd.Messages()) for
// every instance.
func PlanRouteSparse(sd *SparseDemand) RoutePlan {
	n := sd.n
	sc := plannerScratchPool.Get().(*plannerScratch)
	defer plannerScratchPool.Put(sc)
	plan := RoutePlan{N: n}
	recv := sc.recvSlice(n)
	for r := range sd.Sources {
		row := sd.Entries[sd.RowStart[r]:sd.RowStart[r+1]]
		plan.ActiveSources++
		plan.TotalMessages += len(row)
		if len(row) > plan.MaxSendLoad {
			plan.MaxSendLoad = len(row)
		}
		for _, e := range row {
			recv[e.Dst]++
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

	sc.keys = sc.keys[:0]
	for r, src := range sd.Sources {
		for _, e := range sd.Entries[sd.RowStart[r]:sd.RowStart[r+1]] {
			sc.keys = append(sc.keys, uint64(src)*uint64(n)+uint64(e.Dst))
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
	sc.keys = sc.keys[:0]
	for r, src := range sd.Sources {
		for k, e := range sd.Entries[sd.RowStart[r]:sd.RowStart[r+1]] {
			relay := (int(src) + k) % n
			sc.keys = append(sc.keys, uint64(relay)*uint64(n)+uint64(e.Dst))
		}
	}
	relayRounds := sc.maxRunOfSortedKeys()
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

// SparseStepCapable reports whether a route strategy can execute on the
// engine-driven step scheduler without per-node dense buffers. The pipeline
// is excluded: its balancing machinery is the full-load design point, already
// measured on the blocking scheduler, and full load is inherently O(n²) data.
func SparseStepCapable(s RouteStrategy) bool {
	switch s {
	case StrategyEmpty, StrategyDirect, StrategyBroadcast:
		return true
	default:
		return false
	}
}

// SparseSortStepCapable is SparseStepCapable for sorting strategies: the
// empty and presorted arms run as step programs; the small-domain and
// pipeline arms keep the blocking scheduler.
func SparseSortStepCapable(s SortStrategy) bool {
	switch s {
	case SortStrategyEmpty, SortStrategyPresorted:
		return true
	default:
		return false
	}
}

// eachAggregate decodes a census aggregation round at node 0: every sender
// 0..n-1 must have sent exactly one packet of width words, and fold sees
// those packets in ascending sender order. It returns the first sender
// without exactly one well-formed packet, or -1 when every sender has one.
// A single sweep over the records suffices because they arrive in sender
// order: a record from beyond the next expected sender means that sender
// sent nothing, and a second record from the last accepted sender means it
// sent two.
func eachAggregate(inbox clique.FlatInbox, n, width int, fold func(p clique.Packet)) int {
	next := 0
	for from, p := range inbox.Records() {
		if from != next || len(p) != width {
			return min(from, next)
		}
		fold(p)
		next++
	}
	if next < n {
		return next
	}
	return -1
}

// soleFrom returns the packet node from sent this round, or nil unless it
// sent exactly one.
func soleFrom(inbox clique.FlatInbox, from int) clique.Packet {
	var sole clique.Packet
	count := 0
	for f, p := range inbox.Records() {
		if f > from {
			break
		}
		if f == from {
			sole = p
			count++
		}
	}
	if count != 1 {
		return nil
	}
	return sole
}
