package clique

import "sync"

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
// its next step call). Received packets are engine-owned views into
// per-receiver arenas. An Inbox and its packet headers, or a FlatInbox's
// records (ExchangeFlat, and the inbox of every RunRounds step), stay valid
// until the receiver's next exchange or step call; the payload words stay
// valid for PayloadGraceRounds further barriers, so a received packet may be
// forwarded verbatim within that window (this covers
// the paper's constant-round primitives, which re-send received words after
// at most two intervening announcement rounds). Callers that retain packet
// contents beyond the grace window must Clone them. All received views
// expire, at the latest, when Run or RunRounds returns: the engine's
// delivery buffers are pooled across Network instances, so a future Network
// may recycle them — node programs must copy anything that outlives the run.
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

// Inbox holds everything a node received in one round, indexed by sender.
// Inbox[s] is the list of packets sent by node s this round (nil if none).
type Inbox [][]Packet

// From returns the packets received from sender s. It is a convenience
// accessor that tolerates a short or nil inbox.
func (in Inbox) From(s int) []Packet {
	if s < 0 || s >= len(in) {
		return nil
	}
	return in[s]
}

// Single returns the unique packet received from sender s, or nil if none was
// received. It is used by protocols whose invariant is "at most one packet
// per edge per round"; if the invariant is violated the first packet is
// returned (the violation itself surfaces through the engine's metrics or the
// strict bandwidth cap).
func (in Inbox) Single(s int) Packet {
	ps := in.From(s)
	if len(ps) == 0 {
		return nil
	}
	return ps[0]
}

// Count returns the total number of packets in the inbox.
func (in Inbox) Count() int {
	total := 0
	for _, ps := range in {
		total += len(ps)
	}
	return total
}

// Words returns the total number of words in the inbox.
func (in Inbox) Words() int {
	total := 0
	for _, ps := range in {
		for _, p := range ps {
			total += len(p)
		}
	}
	return total
}
