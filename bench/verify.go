package main

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/server"
)

// Detection-quality floors, fixed from the first A/A runs (recall 1.000,
// precision 0.95–1.00 on every world shape tried at full scale): the spam
// slice is easy to cut by design, so anything lower means the SUT or the
// traffic model broke. The smoke test's 2048-node world gives a spammer
// only ~10 requests per interval and misses some (recall 0.70 on
// wide_delta), so below full scale the recall floor only guards against
// detecting nothing.
const (
	recallFloor      = 0.95
	smallRecallFloor = 0.50
	precisionFloor   = 0.90
)

func (p plan) recallFloor() float64 {
	if p.nodes < fullScaleNodes {
		return smallRecallFloor
	}
	return recallFloor
}

// checkJournal requires the journal a restart would recover to equal
// server.EventsToRequests of everything that was sent: record for record
// on the single-node store, per sender for the cluster backend (its
// contract). A two-stream phase interleaves its streams in arrival order;
// their sender sets are disjoint (by the parity of the sender's shape ID),
// so each record is attributed to its stream and each stream's order is
// checked exactly.
func checkJournal(w *world, phases []phaseRecord, got []core.TimedRequest, sharded bool) error {
	if sharded {
		return checkPerSender(w, phases, got)
	}
	off := 0
	for _, ph := range phases {
		want := make([][]core.TimedRequest, len(ph.streams))
		total := 0
		for i, ps := range ph.streams {
			want[i] = server.EventsToRequests(ps.regenerate(w))
			total += len(want[i])
		}
		if off+total > len(got) {
			return fmt.Errorf("journal has %d records, phase %q needs %d more than that", len(got), ph.name, off+total-len(got))
		}
		next := make([]int, len(ph.streams))
		for k, rec := range got[off : off+total] {
			i := 0
			if len(ph.streams) > 1 {
				i = int(w.shapeOf[rec.From]) % 2
			}
			if next[i] >= len(want[i]) || want[i][next[i]] != rec {
				return fmt.Errorf("journal record %d (phase %q, stream %d, position %d) is %+v, not what was sent", off+k, ph.name, i, next[i], rec)
			}
			next[i]++
		}
		off += total
	}
	if off != len(got) {
		return fmt.Errorf("journal has %d records, %d were sent", len(got), off)
	}
	return nil
}

func checkPerSender(w *world, phases []phaseRecord, got []core.TimedRequest) error {
	want := map[graph.NodeID][]core.TimedRequest{}
	total := 0
	for _, ph := range phases {
		for _, ps := range ph.streams {
			for _, rec := range server.EventsToRequests(ps.regenerate(w)) {
				want[rec.From] = append(want[rec.From], rec)
				total++
			}
		}
	}
	if total != len(got) {
		return fmt.Errorf("journal has %d records, %d were sent", len(got), total)
	}
	next := map[graph.NodeID]int{}
	for k, rec := range got {
		i := next[rec.From]
		if i >= len(want[rec.From]) || want[rec.From][i] != rec {
			return fmt.Errorf("journal record %d is %+v, not sender %d's record %d as sent", k, rec, rec.From, i)
		}
		next[rec.From] = i + 1
	}
	return nil
}

// suspectUnion is the ascending union of an epoch's per-interval suspects.
func suspectUnion(rep detectReply) []int32 {
	var all []int32
	for _, iv := range rep.Intervals {
		all = append(all, iv.Suspects...)
	}
	slices.Sort(all)
	return slices.Compact(all)
}

// recallPrecision grades a suspect set against the spam slice [0, spammers).
func recallPrecision(suspects []int32, spammers int) (recall, precision float64) {
	tp := 0
	for _, u := range suspects {
		if int(u) < spammers {
			tp++
		}
	}
	return ratio(float64(tp), float64(spammers)), ratio(float64(tp), float64(len(suspects)))
}

// checkReplay requires the sharded backend's final epoch to equal a cold
// batch replay of the same events under the same detector options:
// same intervals, same round counts, same suspects in the same order.
func checkReplay(w *world, phases []phaseRecord, final detectReply) error {
	var events []server.Event
	for _, ph := range phases {
		for _, ps := range ph.streams {
			events = append(events, ps.regenerate(w)...)
		}
	}
	dets, err := replayDetect(w.base, events)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if len(dets) != len(final.Intervals) {
		return fmt.Errorf("replay found %d intervals, the final epoch %d", len(dets), len(final.Intervals))
	}
	for i, d := range dets {
		got := final.Intervals[i]
		same := d.Interval == got.Interval && d.Detection.Rounds == got.Rounds && len(d.Detection.Suspects) == len(got.Suspects)
		for k := 0; same && k < len(got.Suspects); k++ {
			same = int32(d.Detection.Suspects[k]) == got.Suspects[k]
		}
		if !same {
			return fmt.Errorf("interval %d: final epoch differs from cold replay", d.Interval)
		}
	}
	return nil
}

// breakdown is how one epoch's intervals were produced and what the
// engines spent on them.
type breakdown struct {
	reused, patched, cold int
	patchMS, solveMS      float64
}

// epochBreakdown reads an epoch's breakdown from the /v1/stats sample
// taken after its detect reply: the single-node engine's own, or the sum
// over shard engines. A shard the epoch handed no new records answers
// with its memoized reply, so its stats row still shows its last real
// step; prev (the previous epoch's sample) tells such a shard apart — its
// stepped count did not move — and all its intervals count as reused.
func epochBreakdown(cur, prev statsReply) (b breakdown, ok bool) {
	switch {
	case cur.Incr != nil:
		return breakdown{cur.Incr.Reused, cur.Incr.Patched, cur.Incr.ColdBuilt, cur.Incr.PatchMS, cur.Incr.SolveMS}, true
	case cur.Backend != nil:
		for i, sh := range cur.Backend.PerShard {
			if prev.Backend != nil && i < len(prev.Backend.PerShard) && prev.Backend.PerShard[i].Stepped == sh.Stepped {
				b.reused += sh.Reused + sh.Patched + sh.ColdBuilt
				continue
			}
			b.reused, b.patched, b.cold = b.reused+sh.Reused, b.patched+sh.Patched, b.cold+sh.ColdBuilt
			b.patchMS, b.solveMS = b.patchMS+sh.PatchMS, b.solveMS+sh.SolveMS
		}
		return b, true
	}
	return b, false
}

// checkReuse keeps steady_epochs and wide_delta from silently converging:
// one must reuse all but (at most) two of its prefilled intervals every
// epoch, the other none, ever. epochs[0] is the epoch before the first
// one checked.
func checkReuse(p plan, epochs []*epochRec) error {
	for k := 1; k < len(epochs); k++ {
		b, ok := epochBreakdown(epochs[k].stats, epochs[k-1].stats)
		switch {
		case !ok:
			return fmt.Errorf("epoch %d: /v1/stats has no incremental breakdown", k)
		case p.wantReuse && b.reused < p.prefillIntervals-2:
			return fmt.Errorf("epoch %d reused %d intervals, want ≥ %d", k, b.reused, p.prefillIntervals-2)
		case !p.wantReuse && b.reused != 0:
			return fmt.Errorf("epoch %d reused %d intervals, want 0", k, b.reused)
		}
	}
	return nil
}
