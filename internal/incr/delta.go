package incr

import (
	"repro/internal/core"
	"repro/internal/graph"
)

// Edge is one directed graph edge of a Delta. For friendships the
// direction is ignored; for rejections From is the rejecter and To the
// rejected sender, matching graph.AddRejection.
type Edge struct {
	From, To graph.NodeID
}

// Delta is the change set between two epochs: everything the journal and
// base graph gained since the last Engine.Step. The zero value is the
// empty delta. The ingest path produces one for free — Server.apply calls
// AddRequest as it folds each answered request — so advancing an epoch
// never re-reads the journal.
type Delta struct {
	// NewNodes is the number of nodes appended to the base graph. The
	// rejectod server never grows its base, so this is zero there; the
	// experiments driver uses it for growing worlds.
	NewNodes int
	// Friendships and Rejections are edges added to the base graph itself
	// (outside any interval). Like NewNodes, these are for non-server
	// embeddings; they dirty every interval.
	Friendships []Edge
	Rejections  []Edge
	// Requests is the appended tail of the answered-request journal, in
	// arrival order.
	Requests []core.TimedRequest
}

// AddRequest appends one answered request to the delta — the single call
// the ingest fold makes per journaled request.
func (d *Delta) AddRequest(req core.TimedRequest) {
	d.Requests = append(d.Requests, req)
}

// Merge appends o onto d. Node IDs are absolute, so merging deltas
// captured in sequence is plain concatenation.
func (d *Delta) Merge(o Delta) {
	d.NewNodes += o.NewNodes
	d.Friendships = append(d.Friendships, o.Friendships...)
	d.Rejections = append(d.Rejections, o.Rejections...)
	d.Requests = append(d.Requests, o.Requests...)
}

// Empty reports whether the delta carries no change.
func (d Delta) Empty() bool {
	return d.NewNodes == 0 && len(d.Friendships) == 0 &&
		len(d.Rejections) == 0 && len(d.Requests) == 0
}

// EdgeCount is the number of edge additions the delta implies across base
// and requests (self-requests excluded, duplicates included).
func (d Delta) EdgeCount() int {
	n := len(d.Friendships) + len(d.Rejections)
	for _, req := range d.Requests {
		if req.From != req.To {
			n++
		}
	}
	return n
}

// Edges flattens the delta into splice-ready edge lists for a full-log
// CSR (base graph plus every answered request): base friendships plus
// accepted requests, and base rejections plus rejected requests as
// ⟨recipient, sender⟩.
// Self-requests contribute no edge, mirroring core.DetectSharded's
// interval overlay.
func (d Delta) Edges() (friendships, rejections [][2]graph.NodeID) {
	for _, e := range d.Friendships {
		friendships = append(friendships, [2]graph.NodeID{e.From, e.To})
	}
	for _, e := range d.Rejections {
		rejections = append(rejections, [2]graph.NodeID{e.From, e.To})
	}
	for _, req := range d.Requests {
		if req.From == req.To {
			continue
		}
		if req.Accepted {
			friendships = append(friendships, [2]graph.NodeID{req.From, req.To})
		} else {
			rejections = append(rejections, [2]graph.NodeID{req.To, req.From})
		}
	}
	return friendships, rejections
}
