package clique

import (
	"iter"
	"sync"
)

// Word is the unit of message payload. The congested-clique model allows a
// constant number of integers that are polynomially bounded in n per message;
// a Word holds one such integer.
type Word = int64

// Packet is a single message sent along one directed edge in one round. Its
// length must stay bounded by a constant (independent of n) for an algorithm
// to respect the O(log n) bits-per-edge budget of the model.
//
// Lifetimes: the engine copies sent payloads during delivery, so a sender may
// reuse its buffer as soon as its next Exchange returns (under RunRounds, in
// its next step call). Received packets are views into per-receiver
// arenas: a FlatInbox's records stay valid until the receiver's next
// exchange or step call, and their payload words for PayloadGraceRounds
// further barriers, so a received packet may be forwarded verbatim within
// that window (this covers the paper's constant-round primitives, which
// re-send received words after at most two intervening announcement
// rounds). Callers that retain packet contents beyond the grace window must
// Clone them. All received views expire, at the latest, when Run or
// RunRounds returns: the engine's delivery buffers are pooled across
// Network instances, so a future Network may recycle them — node programs
// must copy anything that outlives the run.
type Packet []Word

// Clone returns an independent copy of the packet. Packets received from
// Exchange share backing storage with the engine (see the Packet lifetime
// rules), so callers that retain packet contents across rounds must clone
// them.
func (p Packet) Clone() Packet {
	if p == nil {
		return nil
	}
	out := make(Packet, len(p))
	copy(out, p)
	return out
}

// pendingPacket is a packet queued by a node for delivery at the next round
// barrier. count and model carry the frame accounting (see Node.SendFramed):
// a plain Send queues one logical message whose model cost is its length,
// while a framed send coalesces count logical messages whose model cost
// excludes the frame's bookkeeping words.
type pendingPacket struct {
	to    int
	data  Packet
	count int32
	model int32
}

// wordBufPool recycles word buffers used to build packet payloads whose
// lifetime ends at a known barrier (the engine copies payloads during
// delivery, so a sender-side buffer is free once the sender's Exchange has
// returned). The Mux carves all of a round's tagged packets out of one pooled
// buffer, so steady-state virtual rounds allocate nothing.
var wordBufPool = sync.Pool{
	New: func() interface{} {
		b := make([]Word, 0, 256)
		return &b
	},
}

// acquireWords returns an empty word buffer from the pool.
func acquireWords() *[]Word {
	b := wordBufPool.Get().(*[]Word)
	*b = (*b)[:0]
	return b
}

// releaseWords returns a buffer to the pool. The caller must not touch any
// memory carved from it afterwards.
func releaseWords(b *[]Word) {
	wordBufPool.Put(b)
}

// FlatInbox is the receive representation of one round: a sequence of
// [from, len, payload...] records, one per physical packet, in ascending
// sender order (send order within a sender). The words are engine-owned
// views into the receive arena (see the Packet lifetime rules).
type FlatInbox []Word

// Deprecated: Exchange returns a FlatInbox; use FlatInbox.
type Inbox = FlatInbox

// Records yields the inbox's records as (sender, payload) pairs in delivery
// order; each payload is a capacity-capped view into the inbox. The engine
// only produces well-formed inboxes; a truncated one panics.
func (f FlatInbox) Records() iter.Seq2[int, Packet] {
	return func(yield func(int, Packet) bool) {
		for i := 0; i < len(f); {
			end := i + 2 + int(f[i+1])
			if !yield(int(f[i]), Packet(f[i+2:end:end])) {
				return
			}
			i = end
		}
	}
}
