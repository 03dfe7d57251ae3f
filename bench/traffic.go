package main

import (
	"math"
	"math/rand/v2"
	"strconv"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/server"
)

// Traffic model constants (ISSUE 12): the lowest 1 % of IDs are the
// spammers (ground truth), they send 30 % of all requests and are accepted
// 15 % of the time, everyone else 80 %; 10 % of requests are never
// answered and the rest are answered a geometric number of events later,
// so the server's lifecycle pending map has a working set.
const (
	spamFrac       = 0.01
	spamShare      = 0.30
	spamAccept     = 0.15
	legitAccept    = 0.80
	neverAnswered  = 0.10
	ignoreOfDenied = 0.25 // share of non-accepts sent as "ignore" instead of "reject"
	meanAnswerLag  = 4096
	wheelSlots     = 1 << 16 // ≥ 16× the mean lag; later answers are clamped
)

// shapeSeed fixes the shape of the world: the base graph's wiring and who
// asks whom, when, with what answer. How much work a detection does is
// chaotic in that shape — over ten differently shaped worlds a cold epoch
// took 1.2 to 3.0 s, an incremental one 0.30 to 0.81 s — so a benchmark
// that redrew it per run could not tell a 10 % regression from a new
// seed. -seed instead relabels the accounts (it rotates the spammers'
// IDs among themselves and everyone else's among themselves) and draws
// the score stream: every run gets different input bytes and different
// shard and hash placement, and very nearly the same amount of work.
const shapeSeed = 7

// world is everything a workload's inputs are derived from: the base
// graph and the spam slice [0, spammers), pure functions of (seed, n).
type world struct {
	shape    *rng.Source // the fixed shape's streams
	src      *rng.Source // the run seed's streams
	n        int
	spammers int
	label    []graph.NodeID // shape ID → account ID
	shapeOf  []graph.NodeID // account ID → shape ID
	base     *graph.Graph
}

func newWorld(seed uint64, n int) *world {
	w := &world{
		shape:    rng.New(shapeSeed),
		src:      rng.New(seed),
		n:        n,
		spammers: max(2, int(float64(n)*spamFrac)),
		label:    make([]graph.NodeID, n),
		shapeOf:  make([]graph.NodeID, n),
	}
	// Rotations, not arbitrary permutations: a Watts-Strogatz ring keeps
	// most neighbours at adjacent IDs, and shuffling that locality away
	// made every sweep ~1.5× slower — a different world, not a relabelled
	// one.
	r := w.src.Stream("labels")
	legit := n - w.spammers
	offSpam, offLegit := r.IntN(w.spammers), r.IntN(legit)
	for i := 0; i < w.spammers; i++ {
		w.label[i] = graph.NodeID((i + offSpam) % w.spammers)
	}
	for i := 0; i < legit; i++ {
		w.label[w.spammers+i] = graph.NodeID(w.spammers + (i+offLegit)%legit)
	}
	for shape, id := range w.label {
		w.shapeOf[id] = graph.NodeID(shape)
	}
	w.base = graph.New(n)
	gen.WattsStrogatz(w.shape.Stream("graph"), n, 8, 0.1).ForEachFriendship(func(u, v graph.NodeID) {
		w.base.AddFriendship(w.label[u], w.label[v])
	})
	return w
}

// pendingAnswer is one wheel slot: the answer event owed for an earlier
// request.
type pendingAnswer struct {
	from, to graph.NodeID
	typ      uint8 // 0 = empty slot
}

const (
	ansAccept = iota + 1
	ansReject
	ansIgnore
)

var answerTypes = [...]string{ansAccept: server.EvAccept, ansReject: server.EvReject, ansIgnore: server.EvIgnore}

// stream is one deterministic lifecycle-event sequence: a named rng stream
// of the world's shape plus a timing wheel of owed answers, emitted under
// the run's labels. Two streams with different parity draw disjoint
// sender sets (by shape ID), so records they interleave in one journal
// can be attributed back to their stream.
type stream struct {
	w      *world
	r      *rand.Rand
	wheel  []pendingAnswer
	idx    uint64
	stride int // 1 = all senders, 2 = only senders ≡ parity (mod 2)
	parity int
	lagDen float64

	events   int
	answered int
}

func (w *world) stream(name string, stride, parity int) *stream {
	return &stream{
		w:      w,
		r:      w.shape.Stream(name),
		wheel:  make([]pendingAnswer, wheelSlots),
		stride: stride,
		parity: parity,
		lagDen: math.Log(1 - 1.0/meanAnswerLag),
	}
}

func (s *stream) sender(lo, hi int) graph.NodeID {
	if s.stride == 1 {
		return graph.NodeID(lo + s.r.IntN(hi-lo))
	}
	// IDs in [lo, hi) congruent to parity.
	first := lo + (s.parity-lo%2+2)%2
	count := (hi - first + 1) / 2
	return graph.NodeID(first + 2*s.r.IntN(count))
}

// next emits the stream's next event, stamped with interval iv: the
// answer owed at this position if there is one, a fresh request otherwise.
func (s *stream) next(iv int) server.Event {
	slot := &s.wheel[s.idx&(wheelSlots-1)]
	s.idx++
	s.events++
	if slot.typ != 0 {
		ev := server.Event{Type: answerTypes[slot.typ], From: slot.from, To: slot.to, Interval: iv}
		slot.typ = 0
		s.answered++
		return ev
	}
	var from graph.NodeID
	accept := legitAccept
	if s.r.Float64() < spamShare {
		from = s.sender(0, s.w.spammers)
		accept = spamAccept
	} else {
		from = s.sender(s.w.spammers, s.w.n)
	}
	to := graph.NodeID(s.r.IntN(s.w.n))
	for to == from {
		to = graph.NodeID(s.r.IntN(s.w.n))
	}
	if s.r.Float64() >= neverAnswered {
		typ := uint8(ansAccept)
		if s.r.Float64() >= accept {
			typ = ansReject
			if s.r.Float64() < ignoreOfDenied {
				typ = ansIgnore
			}
		}
		lag := int(math.Log(1-s.r.Float64()) / s.lagDen)
		lag = min(lag, wheelSlots-2)
		// The slot at idx is the next event; a taken slot pushes the
		// answer to the next free one (deterministic, and rare: the wheel
		// is ~3 % full in steady state).
		at := s.idx + uint64(lag)
		for s.wheel[at&(wheelSlots-1)].typ != 0 {
			at++
		}
		s.wheel[at&(wheelSlots-1)] = pendingAnswer{from: s.w.label[from], to: s.w.label[to], typ: typ}
	}
	return server.Event{Type: server.EvRequest, From: s.w.label[from], To: s.w.label[to], Interval: iv}
}

// intervalFn assigns the interval an event carries, given the event's
// position in its phase. It may draw from r (the stream's own generator,
// so the choice stays a pure function of the seed).
type intervalFn func(pos int, r *rand.Rand) int

func fixedInterval(iv int) intervalFn { return func(int, *rand.Rand) int { return iv } }

// fill appends n events to evs, stamping intervals with ivOf, where pos0
// is the phase position of the first one.
func (s *stream) fill(evs []server.Event, n, pos0 int, ivOf intervalFn) []server.Event {
	for i := 0; i < n; i++ {
		evs = append(evs, s.next(ivOf(pos0+i, s.r)))
	}
	return evs
}

// appendEvents encodes evs as the JSON array POST /v1/events takes. It is
// hand-rolled on strconv.Append* so that encoding costs a few tens of
// nanoseconds per event (gen.encode_ns_per_event), not the microsecond
// encoding/json would charge the load generator's core.
func appendEvents(buf []byte, evs []server.Event) []byte {
	buf = append(buf, '[')
	for i, ev := range evs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"type":"`...)
		buf = append(buf, ev.Type...)
		buf = append(buf, `","from":`...)
		buf = strconv.AppendInt(buf, int64(ev.From), 10)
		buf = append(buf, `,"to":`...)
		buf = strconv.AppendInt(buf, int64(ev.To), 10)
		buf = append(buf, `,"interval":`...)
		buf = strconv.AppendInt(buf, int64(ev.Interval), 10)
		buf = append(buf, '}')
	}
	return append(buf, ']')
}
