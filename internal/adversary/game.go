package adversary

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/incr"
	"repro/internal/rng"
)

// Config parameterizes one adversary game.
type Config struct {
	// Base is the organic friendship graph the campaign attacks; it must
	// carry no rejections and is never mutated (the game clones it).
	Base *graph.Graph
	// Scenario supplies the campaign parameters (attack.Scenario request
	// model): NumFakes is the initial cohort, IntraLinksPerFake wires
	// arrivals, RequestsPerSpammer is the nominal per-account volume per
	// round, SpamRejectionRate/CarelessFraction shape the per-user
	// rejection propensities, LegitRejectionRate drives benign traffic.
	// Overlay fields (CollusionExtraPerFake, SelfRejection,
	// RejectedLegitRequests) are ignored — adaptive strategies replace
	// them.
	Scenario attack.Scenario
	// Strategy is the attacker. Strategies are stateful: pass a fresh
	// instance per game.
	Strategy Strategy
	// Rounds is the number of move→fold→epoch→observe cycles (>= 1). Each
	// round is one journal interval and one detection epoch, the same
	// temporal sharding rejectod applies.
	Rounds int
	// BenignPerRound is the organic answered-request volume per round;
	// 0 means half the organic population.
	BenignPerRound int
	// Detector configures each epoch's detection; at least one termination
	// condition must be set (same contract as incr.Engine).
	Detector core.DetectorOptions
	// Seed drives every random draw of the run.
	Seed uint64
}

// RoundLog records one completed round.
type RoundLog struct {
	Round int
	// Requests is the number of journal entries the round appended
	// (benign + cohort wiring + attacker requests).
	Requests int
	// AttackerRequests is the number of requests the strategy's plan sent.
	AttackerRequests int
	// NewFakes and Compromised count the round's cohort changes.
	NewFakes    int
	Compromised int
	// Suspects is the published suspect union after the round's epoch,
	// ascending.
	Suspects []graph.NodeID
	// FlaggedControlled is the number of attacker accounts in Suspects.
	FlaggedControlled int
}

// Outcome is a finished game: the full journal, final ground truth, the
// final published suspect set, and the final epoch's frozen read model —
// everything a defense needs for post-hoc evaluation.
type Outcome struct {
	Strategy string
	Seed     uint64
	// NumLegit is the organic population size; NumNodes the final total.
	NumLegit int
	NumNodes int
	// IsFake is final ground truth: campaign-created fakes plus organic
	// accounts the attacker compromised at any point.
	IsFake []bool
	// Controlled lists every account the attacker ever owned, ascending.
	Controlled []graph.NodeID
	// Journal is the complete answered-request log, interval = round.
	Journal []core.TimedRequest
	// Rounds logs each round.
	Rounds []RoundLog
	// Suspects is the final published suspect union, ascending — the
	// Rejecto verdict the matrix's rejecto-only defense is scored on.
	Suspects []graph.NodeID
	// Frozen is the canonical CSR snapshot of base + the whole journal,
	// the read model the rank-based ensemble signals run on.
	Frozen *graph.Frozen
}

// Game is one configured run. A Game is single-use: construct with New,
// call Run once.
type Game struct {
	cfg     Config
	src     *rng.Source
	engine  *incr.Engine
	rejRate []float64 // per-organic-account spam-rejection propensity

	numNodes    int
	active      map[graph.NodeID]bool
	dormant     map[graph.NodeID]bool
	compromised map[graph.NodeID]bool
	isFake      []bool

	journal []core.TimedRequest
	ran     bool
}

// New validates the configuration and prepares a game: the initial fake
// cohort is allocated (its arrival wiring lands in round 0's interval) and
// every organic account draws its rejection propensity.
func New(cfg Config) (*Game, error) {
	if cfg.Base == nil {
		return nil, fmt.Errorf("adversary: Config.Base is required")
	}
	if cfg.Strategy == nil {
		return nil, fmt.Errorf("adversary: Config.Strategy is required")
	}
	if cfg.Rounds <= 0 {
		return nil, fmt.Errorf("adversary: Rounds %d must be positive", cfg.Rounds)
	}
	if err := cfg.Scenario.Validate(cfg.Base); err != nil {
		return nil, err
	}
	if cfg.BenignPerRound == 0 {
		cfg.BenignPerRound = cfg.Base.NumNodes() / 2
	}
	if cfg.BenignPerRound < 0 {
		return nil, fmt.Errorf("adversary: BenignPerRound %d must be non-negative", cfg.BenignPerRound)
	}
	// DisableWarm pins every epoch to the cold DetectSharded suspect sets:
	// matrix cells must reflect detection quality, not warm-start
	// heuristics, and cold solves are byte-reproducible against the
	// core.DetectSharded oracle.
	engine, err := incr.NewEngine(incr.Config{
		Base:        cfg.Base.Clone(),
		Detector:    cfg.Detector,
		DisableWarm: true,
	})
	if err != nil {
		return nil, fmt.Errorf("adversary: %w", err)
	}

	g := &Game{
		cfg:         cfg,
		src:         rng.New(cfg.Seed),
		engine:      engine,
		numNodes:    cfg.Base.NumNodes(),
		active:      make(map[graph.NodeID]bool),
		dormant:     make(map[graph.NodeID]bool),
		compromised: make(map[graph.NodeID]bool),
	}

	// Per-organic-account spam-rejection propensity: careless users barely
	// reject, the rest split harsh/lenient around the scenario rate. The
	// heterogeneity is what the target-rotation strategy learns to exploit.
	pr := g.src.Stream("propensity")
	g.rejRate = make([]float64, g.numNodes)
	base := cfg.Scenario.SpamRejectionRate
	for u := range g.rejRate {
		switch {
		case pr.Float64() < cfg.Scenario.CarelessFraction:
			g.rejRate[u] = 0.1 * base
		case pr.Float64() < 0.5:
			g.rejRate[u] = min(1, 1.3*base)
		default:
			g.rejRate[u] = 0.7 * base
		}
	}
	return g, nil
}

// controlledView builds the strategy-facing view for round t.
func (g *Game) view(round int) *View {
	controlled := make(map[graph.NodeID]bool, len(g.active)+len(g.dormant))
	for u := range g.active {
		controlled[u] = true
	}
	for u := range g.dormant {
		controlled[u] = true
	}
	return &View{
		Round:       round,
		NumLegit:    g.cfg.Base.NumNodes(),
		NumNodes:    g.numNodes,
		Active:      sortedIDs(g.active),
		Dormant:     sortedIDs(g.dormant),
		Compromised: sortedIDs(g.compromised),
		Scenario:    g.cfg.Scenario,
		controlled:  controlled,
	}
}

// spawnFakes creates count fresh fake accounts and wires each into the
// cohort with IntraLinksPerFake accepted requests to random earlier active
// accounts (the attack.Scenario arrival model), appended to round's
// interval. Returns the wiring requests.
func (g *Game) spawnFakes(count, round int, r *rand.Rand) []core.TimedRequest {
	var reqs []core.TimedRequest
	for i := 0; i < count; i++ {
		u := graph.NodeID(g.numNodes)
		g.numNodes++
		g.isFakeGrow(u, true)
		pool := sortedIDs(g.active)
		g.active[u] = true
		links := min(g.cfg.Scenario.IntraLinksPerFake, len(pool))
		if links == 0 {
			continue
		}
		for _, j := range rng.Sample(r, len(pool), links) {
			reqs = append(reqs, core.TimedRequest{
				From: u, To: pool[j], Accepted: true, Interval: round,
			})
		}
	}
	return reqs
}

// isFakeGrow extends the ground-truth slice to cover u and sets it.
func (g *Game) isFakeGrow(u graph.NodeID, fake bool) {
	for len(g.isFake) <= int(u) {
		g.isFake = append(g.isFake, false)
	}
	g.isFake[u] = fake
}

// Run plays the configured number of rounds and returns the outcome.
func (g *Game) Run() (*Outcome, error) {
	if g.ran {
		return nil, fmt.Errorf("adversary: Game is single-use; construct a new one per run")
	}
	g.ran = true

	name := g.cfg.Strategy.Name()
	var (
		obs  Observation
		logs []RoundLog
	)
	for t := 0; t < g.cfg.Rounds; t++ {
		var round []core.TimedRequest
		var delta incr.Delta

		// Benign organic traffic first: the background the cut must
		// separate the campaign from.
		br := g.src.Stream(fmt.Sprintf("benign/%d", t))
		nLegit := g.cfg.Base.NumNodes()
		for sent := 0; sent < g.cfg.BenignPerRound && nLegit-len(g.compromised) >= 2; {
			u := graph.NodeID(br.IntN(nLegit))
			v := graph.NodeID(br.IntN(nLegit))
			if u == v || g.compromised[u] || g.dormant[u] || g.compromised[v] {
				continue
			}
			round = append(round, core.TimedRequest{
				From: u, To: v,
				Accepted: br.Float64() >= g.cfg.Scenario.LegitRejectionRate,
				Interval: t,
			})
			sent++
		}

		// Round 0 injects the initial cohort before the strategy moves, so
		// the first plan already owns a wired fake region.
		if t == 0 {
			delta.NewNodes += g.cfg.Scenario.NumFakes
			round = append(round,
				g.spawnFakes(g.cfg.Scenario.NumFakes, 0, g.src.Stream("arrival/init"))...)
		}

		// Attacker move.
		view := g.view(t)
		plan := g.cfg.Strategy.Plan(view, obs, g.src.Stream(fmt.Sprintf("strategy/%d", t)))

		// Retirement takes effect immediately: this round's requests must
		// come from accounts that remain active.
		retired := make(map[graph.NodeID]bool, len(plan.Retire))
		for _, u := range plan.Retire {
			retired[u] = true
		}
		activeAfter := make(map[graph.NodeID]bool, len(g.active))
		for u := range g.active {
			if !retired[u] {
				activeAfter[u] = true
			}
		}
		if err := validatePlan(name, view, g.active, activeAfter, plan); err != nil {
			return nil, err
		}
		for _, u := range plan.Retire {
			if g.active[u] {
				delete(g.active, u)
				g.dormant[u] = true
			}
		}

		// Compromise: the game draws which organic accounts fall.
		sr := g.src.Stream(fmt.Sprintf("seize/%d", t))
		for seized := 0; seized < plan.Compromise; {
			u := graph.NodeID(sr.IntN(nLegit))
			if g.compromised[u] || g.active[u] || g.dormant[u] {
				continue
			}
			g.compromised[u] = true
			g.active[u] = true
			g.isFakeGrow(u, true)
			seized++
		}

		// Fresh fakes arrive wired into the surviving cohort.
		if plan.NewFakes > 0 {
			delta.NewNodes += plan.NewFakes
			round = append(round,
				g.spawnFakes(plan.NewFakes, t, g.src.Stream(fmt.Sprintf("arrival/%d", t)))...)
		}

		// The plan's requests, outcomes drawn by target propensity.
		or := g.src.Stream(fmt.Sprintf("outcomes/%d", t))
		outcomes := make([]RequestOutcome, 0, len(plan.Requests))
		for _, req := range plan.Requests {
			accepted := true
			if int(req.To) < nLegit && !g.compromised[req.To] && !g.dormant[req.To] {
				accepted = or.Float64() >= g.rejRate[req.To]
			} else if req.SelfReject {
				accepted = false
			}
			round = append(round, core.TimedRequest{
				From: req.From, To: req.To, Accepted: accepted, Interval: t,
			})
			outcomes = append(outcomes, RequestOutcome{From: req.From, To: req.To, Accepted: accepted})
		}

		// Fold and cut the epoch through the same engine path rejectod uses.
		delta.Requests = round
		dets, _, err := g.engine.Step(delta)
		if err != nil {
			return nil, fmt.Errorf("adversary: round %d epoch: %w", t, err)
		}
		suspects := suspectUnion(dets)

		g.journal = append(g.journal, round...)
		flagged := 0
		for _, u := range suspects {
			if g.active[u] || g.dormant[u] {
				flagged++
			}
		}
		logs = append(logs, RoundLog{
			Round:             t,
			Requests:          len(round),
			AttackerRequests:  len(plan.Requests),
			NewFakes:          plan.NewFakes,
			Compromised:       plan.Compromise,
			Suspects:          suspects,
			FlaggedControlled: flagged,
		})
		obs = Observation{Round: t, Suspects: suspects, Outcomes: outcomes}
	}

	// Final read model: base + whole journal, canonical CSR.
	aug := g.cfg.Base.Clone()
	aug.AddNodes(g.numNodes - aug.NumNodes())
	for _, req := range g.journal {
		if req.From == req.To {
			continue
		}
		if req.Accepted {
			aug.AddFriendship(req.From, req.To)
		} else {
			aug.AddRejection(req.To, req.From)
		}
	}

	controlled := make(map[graph.NodeID]bool, len(g.active)+len(g.dormant))
	for u := range g.active {
		controlled[u] = true
	}
	for u := range g.dormant {
		controlled[u] = true
	}
	isFake := make([]bool, g.numNodes)
	copy(isFake, g.isFake)

	return &Outcome{
		Strategy:   name,
		Seed:       g.cfg.Seed,
		NumLegit:   g.cfg.Base.NumNodes(),
		NumNodes:   g.numNodes,
		IsFake:     isFake,
		Controlled: sortedIDs(controlled),
		Journal:    g.journal,
		Rounds:     logs,
		Suspects:   logs[len(logs)-1].Suspects,
		Frozen:     aug.FreezeCanonical(),
	}, nil
}

// suspectUnion flattens a detection set into the published suspect union,
// ascending — exactly what rejectod's /v1/suspects serves.
func suspectUnion(dets []core.IntervalDetection) []graph.NodeID {
	seen := make(map[graph.NodeID]bool)
	for _, d := range dets {
		for _, u := range d.Detection.Suspects {
			seen[u] = true
		}
	}
	return sortedIDs(seen)
}
