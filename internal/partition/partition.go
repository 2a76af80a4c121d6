// Package partition implements joint entity+relation sharding for graphs
// whose embedding tables do not fit one node: every entity row and every
// relation row is assigned to exactly one owner rank, and training triples
// are placed on the rank that owns most of their rows. Two partitioners are
// provided, both deterministic functions of (dataset, ranks, seed):
//
//   - "mincut": a relation-led greedy min-cut over the triple hypergraph.
//     Relations are placed first (heaviest first, each on the rank whose
//     already-placed triples share the most entity endpoints), entities
//     follow the rank holding most of their endpoint mass, and triples land
//     on the rank owning the majority of their three rows — every pass
//     under row-count and triple-mass balance caps. This is the
//     DGL-KE/METIS idea (keep most triples rank-local) as dependency-free
//     greedy passes, relation-led because a relation's triples all connect
//     the same entity neighbourhoods.
//   - "hash": seeded multiplicative hashing of row ids onto ranks — the
//     locality-blind baseline the min-cut quality is measured against.
//     Triple placement uses the same majority rule, so the two algorithms
//     differ only in row ownership.
//
// A Plan is pure data: every rank of a distributed job rebuilds the
// identical Plan from the shared (dataset, Options) rather than exchanging
// it, the same replicate-the-pure-function scheme the trainer already uses
// for data partitioning. Quality reports the cut ratio, shard balance and
// remote-row fraction that the training ledger and /metrics expose.
package partition

import (
	"fmt"
	"sort"

	"kgedist/internal/kg"
)

// Options selects and seeds a partitioner.
type Options struct {
	// Ranks is the number of shards (the world size P).
	Ranks int
	// Algo is "mincut" (default) or "hash".
	Algo string
	// Seed drives tie-breaking ("mincut") and the id hash ("hash"). Plans
	// with equal inputs are identical; different seeds yield different,
	// equally valid plans.
	Seed uint64
	// Slack is the allowed per-shard overshoot above the perfect balance
	// total/P, as a fraction (0.1 = 10%). Zero means DefaultSlack.
	Slack float64
}

// DefaultSlack is the balance slack applied when Options.Slack is zero.
const DefaultSlack = 0.1

func (o Options) withDefaults() Options {
	if o.Algo == "" {
		o.Algo = "mincut"
	}
	if o.Slack == 0 {
		o.Slack = DefaultSlack
	}
	return o
}

// Validate reports option errors.
func (o Options) Validate() error {
	if o.Ranks < 1 {
		return fmt.Errorf("partition: Ranks must be >= 1, got %d", o.Ranks)
	}
	switch o.Algo {
	case "", "mincut", "hash":
	default:
		return fmt.Errorf("partition: unknown algorithm %q (want mincut or hash)", o.Algo)
	}
	if o.Slack < 0 {
		return fmt.Errorf("partition: Slack must be >= 0, got %v", o.Slack)
	}
	return nil
}

// Plan is the complete ownership assignment for one (dataset, options)
// pair: every entity and relation row has exactly one owner rank, and the
// training triples are sharded. Rows of both tables share one unified id
// space (entities first, then relations offset by NumEntities) so the row
// exchange can move them through a single collective.
type Plan struct {
	// Ranks is the shard count the plan was built for.
	Ranks int
	// NumEntities and NumRelations fix the id spaces.
	NumEntities  int
	NumRelations int
	// Algo and Seed record how the plan was built.
	Algo string
	Seed uint64

	// EntityOwner[e] is the rank owning entity row e.
	EntityOwner []int32
	// RelationOwner[r] is the rank owning relation row r.
	RelationOwner []int32
	// Shards[rank] holds the training triples placed on rank.
	Shards [][]kg.Triple
}

// RelationUID returns the unified id of relation r.
func (p *Plan) RelationUID(r int32) int32 { return int32(p.NumEntities) + r }

// Rows returns the unified row count (entities + relations).
func (p *Plan) Rows() int { return p.NumEntities + p.NumRelations }

// Owner returns the rank owning unified row uid, which must lie in
// [0, Rows()).
func (p *Plan) Owner(uid int32) int {
	if int(uid) < p.NumEntities {
		return int(p.EntityOwner[uid])
	}
	return int(p.RelationOwner[int(uid)-p.NumEntities])
}

// OwnedUIDs returns the ascending unified ids owned by rank: entity rows
// first, then relation rows. The slice is freshly allocated.
func (p *Plan) OwnedUIDs(rank int) []int32 {
	out := make([]int32, 0, p.ownedCount(rank))
	for e, o := range p.EntityOwner {
		if int(o) == rank {
			out = append(out, int32(e))
		}
	}
	for r, o := range p.RelationOwner {
		if int(o) == rank {
			out = append(out, int32(p.NumEntities+r))
		}
	}
	return out
}

func (p *Plan) ownedCount(rank int) int {
	n := 0
	for _, o := range p.EntityOwner {
		if int(o) == rank {
			n++
		}
	}
	for _, o := range p.RelationOwner {
		if int(o) == rank {
			n++
		}
	}
	return n
}

// PreferredRank returns the rank owning the majority of the triple's three
// rows (head entity, relation, tail entity), lowest rank winning ties. It
// is the placement rule used for training shards and reused by the trainer
// for validation triples.
func (p *Plan) PreferredRank(t kg.Triple) int {
	a := int(p.EntityOwner[t.H])
	b := int(p.RelationOwner[t.R])
	c := int(p.EntityOwner[t.T])
	// Majority of three, lowest rank on a three-way tie... which is any
	// pairing that agrees; otherwise the smallest of the three.
	if a == b || a == c {
		return a
	}
	if b == c {
		return b
	}
	best := a
	if b < best {
		best = b
	}
	if c < best {
		best = c
	}
	return best
}

// RemoteRows returns how many of the triple's three rows are not owned by
// rank.
func (p *Plan) RemoteRows(t kg.Triple, rank int) int {
	n := 0
	if int(p.EntityOwner[t.H]) != rank {
		n++
	}
	if int(p.RelationOwner[t.R]) != rank {
		n++
	}
	if int(p.EntityOwner[t.T]) != rank {
		n++
	}
	return n
}

// Validate checks the plan's structural invariants: owner arrays fully
// populated with in-range ranks (every row has exactly one owner by
// construction of the arrays), and shard triples referencing in-range rows
// with one shard per rank.
func (p *Plan) Validate() error {
	if p.Ranks < 1 {
		return fmt.Errorf("partition: plan has %d ranks", p.Ranks)
	}
	if len(p.EntityOwner) != p.NumEntities || len(p.RelationOwner) != p.NumRelations {
		return fmt.Errorf("partition: owner tables sized %d/%d, want %d/%d",
			len(p.EntityOwner), len(p.RelationOwner), p.NumEntities, p.NumRelations)
	}
	for e, o := range p.EntityOwner {
		if o < 0 || int(o) >= p.Ranks {
			return fmt.Errorf("partition: entity %d has out-of-range owner %d", e, o)
		}
	}
	for r, o := range p.RelationOwner {
		if o < 0 || int(o) >= p.Ranks {
			return fmt.Errorf("partition: relation %d has out-of-range owner %d", r, o)
		}
	}
	if len(p.Shards) != p.Ranks {
		return fmt.Errorf("partition: %d shards for %d ranks", len(p.Shards), p.Ranks)
	}
	for rank, shard := range p.Shards {
		for i, t := range shard {
			if t.H < 0 || int(t.H) >= p.NumEntities || t.T < 0 || int(t.T) >= p.NumEntities ||
				t.R < 0 || int(t.R) >= p.NumRelations {
				return fmt.Errorf("partition: shard %d triple %d out of range: %+v", rank, i, t)
			}
		}
	}
	return nil
}

// Quality summarizes how good a plan is; the trainer surfaces these in the
// epoch ledger and /metrics.
type Quality struct {
	// CutRatio is the fraction of sharded training triples with at least
	// one row owned by a different rank than the triple's shard (a "cut"
	// triple needs the row exchange; 0 = perfectly local).
	CutRatio float64
	// RemoteRowFraction is the fraction of all row references (3 per
	// triple) that cross shard boundaries — the payload the batch-scoped
	// row exchange actually moves.
	RemoteRowFraction float64
	// EntityBalance is max-owned-entities / mean (1.0 = perfect).
	EntityBalance float64
	// RelationBalance is max-owned-relations / mean.
	RelationBalance float64
	// TripleBalance is max-shard-triples / mean.
	TripleBalance float64
	// MaxEntityShard is the largest per-rank entity row count — the number
	// the memory-scaling claim is asserted against.
	MaxEntityShard int
}

// Quality scans the plan once and returns its quality stats.
func (p *Plan) Quality() Quality {
	var q Quality
	entPerRank := make([]int, p.Ranks)
	for _, o := range p.EntityOwner {
		entPerRank[o]++
	}
	relPerRank := make([]int, p.Ranks)
	for _, o := range p.RelationOwner {
		relPerRank[o]++
	}
	cut, remote, triples := 0, 0, 0
	maxShard := 0
	for rank, shard := range p.Shards {
		triples += len(shard)
		if len(shard) > maxShard {
			maxShard = len(shard)
		}
		for _, t := range shard {
			r := p.RemoteRows(t, rank)
			remote += r
			if r > 0 {
				cut++
			}
		}
	}
	if triples > 0 {
		q.CutRatio = float64(cut) / float64(triples)
		q.RemoteRowFraction = float64(remote) / float64(3*triples)
		q.TripleBalance = float64(maxShard) * float64(p.Ranks) / float64(triples)
	}
	maxEnt := 0
	for _, n := range entPerRank {
		if n > maxEnt {
			maxEnt = n
		}
	}
	q.MaxEntityShard = maxEnt
	if p.NumEntities > 0 {
		q.EntityBalance = float64(maxEnt) * float64(p.Ranks) / float64(p.NumEntities)
	}
	maxRel := 0
	for _, n := range relPerRank {
		if n > maxRel {
			maxRel = n
		}
	}
	if p.NumRelations > 0 {
		q.RelationBalance = float64(maxRel) * float64(p.Ranks) / float64(p.NumRelations)
	}
	return q
}

// Build partitions the dataset's rows and training triples across
// opt.Ranks shards. The result is a pure function of (d, opt): every rank
// of a job calls Build with identical arguments and obtains the identical
// plan without communication.
func Build(d *kg.Dataset, opt Options) (*Plan, error) {
	opt = opt.withDefaults()
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{
		Ranks:        opt.Ranks,
		NumEntities:  d.NumEntities,
		NumRelations: d.NumRelations,
		Algo:         opt.Algo,
		Seed:         opt.Seed,
	}
	switch opt.Algo {
	case "hash":
		p.EntityOwner = hashOwners(d.NumEntities, opt.Ranks, opt.Seed, 0x9e3779b97f4a7c15)
		p.RelationOwner = hashOwners(d.NumRelations, opt.Ranks, opt.Seed, 0xbf58476d1ce4e5b9)
	default: // mincut
		p.EntityOwner, p.RelationOwner = mincutOwners(d, opt)
	}
	p.Shards = placeTriples(d.Train, p, opt)
	return p, nil
}

// hashOwners assigns n ids to ranks by seeded splitmix64 finalization —
// uniform in expectation, locality-blind by design.
func hashOwners(n, ranks int, seed, salt uint64) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(mix64(seed^salt^uint64(i)) % uint64(ranks))
	}
	return out
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// mixer (Steele et al.), used for both the hash partitioner and the
// mincut tie-break jitter.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mincutOwners is the "mincut" partitioner: a relation-led greedy pass.
// Relations are the locality unit of a knowledge graph — all triples of one
// relation connect the same neighbourhoods — so relations are placed first,
// each on the rank whose already-placed triples share the most entity
// endpoints with it (descending triple-count order: heavy relations pick
// while the canvas is open). Entities then follow the rank where most of
// their triple endpoints landed. Each pass enforces two balance caps: a
// row-count cap (the per-rank memory bound) and a triple-mass cap (so the
// Zipf-heavy head of the relation histogram cannot steer nearly all triples'
// majority votes onto one rank, which would force placeTriples to demote
// them to shards with zero locality).
func mincutOwners(d *kg.Dataset, opt Options) (entOwner, relOwner []int32) {
	nE, nR, p := d.NumEntities, d.NumRelations, opt.Ranks
	entOwner = make([]int32, nE)
	relOwner = make([]int32, nR)
	if p == 1 {
		return entOwner, relOwner
	}

	// Training triples grouped by relation, CSR-style.
	count := make([]int, nR)
	for _, t := range d.Train {
		count[t.R]++
	}
	off := make([]int, nR+1)
	for r := 0; r < nR; r++ {
		off[r+1] = off[r] + count[r]
	}
	byRel := make([]kg.Triple, len(d.Train))
	fill := make([]int, nR)
	for _, t := range d.Train {
		byRel[off[t.R]+fill[t.R]] = t
		fill[t.R]++
	}

	// ---- Pass 1: relations, heaviest first, by shared-entity affinity ----
	relOrder := make([]int, nR)
	for i := range relOrder {
		relOrder[i] = i
	}
	sort.Slice(relOrder, func(i, j int) bool {
		a, b := relOrder[i], relOrder[j]
		if count[a] != count[b] {
			return count[a] > count[b]
		}
		return mix64(opt.Seed^0xa0761d6478bd642f^uint64(a)) < mix64(opt.Seed^0xa0761d6478bd642f^uint64(b))
	})

	// entMass[e*p+k]: endpoint appearances of entity e among triples whose
	// relation is already placed on rank k. It is both the affinity signal
	// for pass 1 and the vote table for pass 2.
	entMass := make([]int, nE*p)
	relCap := balanceCap(nR, p, opt.Slack)
	massCap := balanceCap(len(d.Train), p, opt.Slack)
	relLoad := make([]int, p)
	massLoad := make([]int, p)
	gain := make([]int64, p)
	for _, r := range relOrder {
		ts := byRel[off[r]:off[r+1]]
		for k := range gain {
			gain[k] = 0
		}
		for _, t := range ts {
			h, tl := int(t.H)*p, int(t.T)*p
			for k := 0; k < p; k++ {
				gain[k] += int64(entMass[h+k] + entMass[tl+k])
			}
		}
		best := -1
		for k := 0; k < p; k++ {
			if relLoad[k] >= relCap || massLoad[k]+count[r] > massCap {
				continue
			}
			if best < 0 || gain[k] > gain[best] ||
				(gain[k] == gain[best] && massLoad[k] < massLoad[best]) {
				best = k
			}
		}
		if best < 0 {
			// Mass caps saturated (one relation can dominate the corpus):
			// relax to the row cap, mass-lightest rank.
			for k := 0; k < p; k++ {
				if relLoad[k] >= relCap {
					continue
				}
				if best < 0 || massLoad[k] < massLoad[best] {
					best = k
				}
			}
		}
		if best < 0 {
			// Every rank at the row cap (possible only through rounding):
			// the globally lightest rank, preserving every-row-owned.
			best = lightest(relLoad)
		}
		relOwner[r] = int32(best)
		relLoad[best]++
		massLoad[best] += count[r]
		for _, t := range ts {
			entMass[int(t.H)*p+best]++
			entMass[int(t.T)*p+best]++
		}
	}

	// ---- Pass 2: entities follow their endpoint mass ----
	deg := make([]int, nE)
	for _, t := range d.Train {
		deg[t.H]++
		deg[t.T]++
	}
	entOrder := make([]int, nE)
	for i := range entOrder {
		entOrder[i] = i
	}
	sort.Slice(entOrder, func(i, j int) bool {
		a, b := entOrder[i], entOrder[j]
		if deg[a] != deg[b] {
			return deg[a] > deg[b]
		}
		return mix64(opt.Seed^uint64(a)) < mix64(opt.Seed^uint64(b))
	})
	// Entities are capped on row count (memory) and on degree mass: without
	// the latter the hub entities all follow the same rank, and pairs of
	// co-located hubs outvote their relation's owner in the triple majority,
	// skewing the preference distribution past what placeTriples can absorb.
	entCap := balanceCap(nE, p, opt.Slack)
	degCap := balanceCap(2*len(d.Train), p, opt.Slack)
	load := make([]int, p)
	degLoad := make([]int, p)
	for _, e := range entOrder {
		m := entMass[e*p : e*p+p]
		best := -1
		for k := 0; k < p; k++ {
			if load[k] >= entCap || degLoad[k]+deg[e] > degCap {
				continue
			}
			if best < 0 || m[k] > m[best] ||
				(m[k] == m[best] && degLoad[k] < degLoad[best]) {
				best = k
			}
		}
		if best < 0 {
			// Degree caps saturated (a single hub can overflow every rank's
			// remaining budget): relax to the row cap, degree-lightest rank.
			for k := 0; k < p; k++ {
				if load[k] >= entCap {
					continue
				}
				if best < 0 || degLoad[k] < degLoad[best] {
					best = k
				}
			}
		}
		if best < 0 {
			best = lightest(load)
		}
		entOwner[e] = int32(best)
		load[best]++
		degLoad[best] += deg[e]
	}
	return entOwner, relOwner
}

// placeTriples shards the training triples: each goes to the rank owning
// most of its three rows (PreferredRank), subject to the shard balance cap.
// When a rank's preference count overflows its cap, the demotion victims
// are chosen by locality, least-local first: a fully-local triple costs two
// extra remote rows when displaced, a 2-of-3 triple only one, so keeping
// the fully-local ones caps the balance penalty on the row exchange.
// Output order within a shard follows the input order, so downstream
// shuffling stays seeded.
func placeTriples(train []kg.Triple, p *Plan, opt Options) [][]kg.Triple {
	shards := make([][]kg.Triple, opt.Ranks)
	if opt.Ranks == 1 {
		shards[0] = append([]kg.Triple(nil), train...)
		return shards
	}
	capPerRank := balanceCap(len(train), opt.Ranks, opt.Slack)

	// First sweep: preference and locality per triple, preference counts
	// per rank.
	pref := make([]int32, len(train))
	local := make([]int8, len(train))
	prefCount := make([]int, opt.Ranks)
	for i, t := range train {
		pr := p.PreferredRank(t)
		pref[i] = int32(pr)
		local[i] = int8(3 - p.RemoteRows(t, pr))
		prefCount[pr]++
	}

	// Victim selection per overflowing rank: keep locality-3 triples first,
	// then locality-2, earlier input index winning within a class.
	demote := make([]bool, len(train))
	for k := 0; k < opt.Ranks; k++ {
		over := prefCount[k] - capPerRank
		if over <= 0 {
			continue
		}
		kept := 0
		for class := int8(3); class >= 1; class-- {
			for i := range train {
				if pref[i] != int32(k) || local[i] != class {
					continue
				}
				if kept < capPerRank {
					kept++
				} else {
					demote[i] = true
				}
			}
		}
	}

	// Victims may only take a rank's spare capacity beyond its own keeps —
	// otherwise an early victim could fill a slot a later keep needs and
	// push that rank over the cap.
	room := make([]int, opt.Ranks)
	for k := 0; k < opt.Ranks; k++ {
		kept := prefCount[k]
		if kept > capPerRank {
			kept = capPerRank
		}
		room[k] = capPerRank - kept
	}

	// Second sweep, input order: survivors to their preferred rank, victims
	// to the row-owner rank with the most of their rows among those with
	// room (so a displaced triple keeps what locality it can), else the
	// rank with the most room.
	for i, t := range train {
		best := int(pref[i])
		if demote[i] {
			owners := [3]int{int(p.EntityOwner[t.H]), int(p.RelationOwner[t.R]), int(p.EntityOwner[t.T])}
			best = -1
			bestOwned := 0
			for _, cand := range owners {
				if room[cand] <= 0 {
					continue
				}
				owned := 0
				for _, o := range owners {
					if o == cand {
						owned++
					}
				}
				if best < 0 || owned > bestOwned ||
					(owned == bestOwned && room[cand] > room[best]) {
					best, bestOwned = cand, owned
				}
			}
			if best < 0 {
				// No row owner has room; the roomiest rank always exists
				// because the caps sum to at least the triple count.
				best = 0
				for r := 1; r < opt.Ranks; r++ {
					if room[r] > room[best] {
						best = r
					}
				}
			}
			room[best]--
		}
		shards[best] = append(shards[best], t)
	}
	return shards
}

// balanceCap returns the per-shard item cap total/p scaled by (1+slack),
// rounded up, never below ceil(total/p) so a cap can always hold a perfect
// split.
func balanceCap(total, p int, slack float64) int {
	perfect := (total + p - 1) / p
	c := int(float64(total) / float64(p) * (1 + slack))
	if c < perfect {
		c = perfect
	}
	return c
}

func lightest(load []int) int {
	best := 0
	for r := 1; r < len(load); r++ {
		if load[r] < load[best] {
			best = r
		}
	}
	return best
}

// BalanceBound returns the maximum owned-row count a plan built with the
// given slack may assign to one rank: the balance cap plus one for cap
// rounding — the bound the property tests and the trainer's memory
// assertion check against.
func BalanceBound(total, ranks int, slack float64) int {
	if slack == 0 {
		slack = DefaultSlack
	}
	return balanceCap(total, ranks, slack) + 1
}
