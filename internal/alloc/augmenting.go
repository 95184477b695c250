package alloc

// AugmentingPath computes a maximum bipartite matching between crossbar
// rows and output ports each cycle using Kuhn's augmenting-path algorithm
// (the Ford-Fulkerson construction the paper cites). It is the "AP"
// scheme of the evaluation: the best matching a single cycle can achieve
// on the offered request matrix.
//
// The paper deems AP infeasible to implement within a router cycle
// (Table 3) and observes that, despite its per-router optimality, greedy
// maximum matching is locally optimal but globally unfair at the network
// level (Figure 9). The implementation is deliberately deterministic in
// its search order — exactly the behaviour a hardware realisation would
// have — which is what produces that unfairness.
type AugmentingPath struct {
	cfg   Config
	rowOf []int32 // per port*VCs+vc: precomputed Config.Row
	vcPtr []int32 // per row: round-robin pointer selecting the transmitting VC

	// scratch for matching
	adj      [][]int // adj[row] = outputs requested
	matchTo  []int   // matchTo[out] = row, -1 if free
	visited  []bool
	cellReqs cellScratch
	slots    vcPickScratch
	grants   []Grant
}

// NewAugmentingPath returns a maximum-matching allocator for cfg. It
// panics if cfg is invalid.
func NewAugmentingPath(cfg Config) *AugmentingPath {
	mustValidate(cfg)
	return &AugmentingPath{
		cfg:      cfg,
		rowOf:    rowTable(cfg),
		vcPtr:    make([]int32, cfg.Rows()),
		adj:      make([][]int, cfg.Rows()),
		matchTo:  make([]int, cfg.Ports),
		visited:  make([]bool, cfg.Ports),
		cellReqs: newCellScratch(cfg),
		slots:    newVCPickScratch(cfg),
		grants:   make([]Grant, 0, cfg.Ports),
	}
}

// Name implements Allocator.
func (a *AugmentingPath) Name() string { return "ap" }

// Reset implements Allocator.
func (a *AugmentingPath) Reset() {
	for i := range a.vcPtr {
		a.vcPtr[i] = 0
	}
}

// Allocate implements Allocator. The returned slice is scratch, valid
// until the next Allocate or Reset call.
func (a *AugmentingPath) Allocate(rs *RequestSet) []Grant {
	rows := a.cfg.Rows()
	for i := 0; i < rows; i++ {
		a.adj[i] = a.adj[i][:0]
	}
	// Representative request per (row, out); VC choice refined afterwards.
	a.cellReqs.clear()
	for idx, r := range rs.Requests {
		row := int(a.rowOf[r.Port*a.cfg.VCs+r.VC])
		if len(a.cellReqs.at(row, r.OutPort)) == 0 {
			a.adj[row] = append(a.adj[row], r.OutPort)
		}
		a.cellReqs.add(row, r.OutPort, idx)
	}
	for i := range a.matchTo {
		a.matchTo[i] = -1
	}
	for row := 0; row < rows; row++ {
		if len(a.adj[row]) == 0 {
			continue
		}
		for i := range a.visited {
			a.visited[i] = false
		}
		a.augment(row)
	}

	a.grants = a.grants[:0]
	for out, row := range a.matchTo {
		if row < 0 {
			continue
		}
		var idx int
		idx, a.vcPtr[row] = a.slots.pick(rs, a.cellReqs.at(row, out), a.vcPtr[row])
		a.grants = append(a.grants, Grant{Req: idx, OutPort: out, Row: row})
	}
	return a.grants
}

// augment tries to find an augmenting path from row; it returns true and
// updates the matching if one exists.
func (a *AugmentingPath) augment(row int) bool {
	for _, out := range a.adj[row] {
		if a.visited[out] {
			continue
		}
		a.visited[out] = true
		if a.matchTo[out] < 0 || a.augment(a.matchTo[out]) {
			a.matchTo[out] = row
			return true
		}
	}
	return false
}
