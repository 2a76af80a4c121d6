package eval

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"kgedist/internal/kg"
	"kgedist/internal/model"
	"kgedist/internal/xrand"
)

// fixedModel scores triples from a lookup table, defaulting to a low score.
type fixedModel struct {
	scores map[kg.Triple]float32
	def    float32
}

func (f *fixedModel) Name() string { return "fixed" }
func (f *fixedModel) Dim() int     { return 1 }
func (f *fixedModel) Width() int   { return 1 }
func (f *fixedModel) Score(_ *model.Params, t kg.Triple) float32 {
	if s, ok := f.scores[t]; ok {
		return s
	}
	return f.def
}
func (f *fixedModel) ScoreRows(_, _, _ []float32) float32 { return f.def }
func (f *fixedModel) AccumulateScoreGrad(*model.Params, kg.Triple, float32, []float32, []float32, []float32) {
}
func (f *fixedModel) AccumulateScoreGradRows(_, _, _ []float32, _ float32, _, _, _ []float32) {}
func (f *fixedModel) ScoreFlops() float64                                                     { return 1 }
func (f *fixedModel) GradFlops() float64                                                      { return 1 }

func TestLinkPredictionPerfectModel(t *testing.T) {
	t.Parallel()
	// 4 entities; the test triple outscores every corruption -> MRR 1.
	d := &kg.Dataset{
		NumEntities:  4,
		NumRelations: 1,
		Test:         []kg.Triple{{H: 0, R: 0, T: 1}},
	}
	f := kg.NewFilterIndex(d)
	m := &fixedModel{scores: map[kg.Triple]float32{{H: 0, R: 0, T: 1}: 10}, def: -1}
	res := LinkPrediction(m, nil, d, f, 0, xrand.New(1))
	if res.MRR != 1 || res.FilteredMRR != 1 {
		t.Fatalf("perfect model MRR %v filtered %v", res.MRR, res.FilteredMRR)
	}
	if res.Hits1 != 1 || res.Hits10 != 1 {
		t.Fatalf("hits %v %v", res.Hits1, res.Hits10)
	}
	if res.Triples != 1 {
		t.Fatalf("triples %d", res.Triples)
	}
}

func TestLinkPredictionHandComputedRank(t *testing.T) {
	t.Parallel()
	// Entity 2 outranks the true tail 1; entity 3 ties (counted at rank 1,
	// strictly-greater convention). So tail rank = 2, head rank = 1.
	d := &kg.Dataset{
		NumEntities:  4,
		NumRelations: 1,
		Test:         []kg.Triple{{H: 0, R: 0, T: 1}},
	}
	f := kg.NewFilterIndex(d)
	m := &fixedModel{scores: map[kg.Triple]float32{
		{H: 0, R: 0, T: 1}: 5, // the true triple
		{H: 0, R: 0, T: 2}: 7, // a tail corruption that wins
	}, def: -1}
	res := LinkPrediction(m, nil, d, f, 0, xrand.New(1))
	want := (1.0 + 0.5) / 2 // head rank 1, tail rank 2
	if math.Abs(res.MRR-want) > 1e-12 {
		t.Fatalf("MRR %v, want %v", res.MRR, want)
	}
}

func TestFilteredSkipsKnownTriples(t *testing.T) {
	t.Parallel()
	// The higher-scoring corruption is itself a training fact, so the
	// filtered rank ignores it while the raw rank counts it.
	d := &kg.Dataset{
		NumEntities:  4,
		NumRelations: 1,
		Train:        []kg.Triple{{H: 0, R: 0, T: 2}},
		Test:         []kg.Triple{{H: 0, R: 0, T: 1}},
	}
	f := kg.NewFilterIndex(d)
	m := &fixedModel{scores: map[kg.Triple]float32{
		{H: 0, R: 0, T: 1}: 5,
		{H: 0, R: 0, T: 2}: 7,
	}, def: -1}
	res := LinkPrediction(m, nil, d, f, 0, xrand.New(1))
	if res.FilteredMRR <= res.MRR {
		t.Fatalf("filtered %v should exceed raw %v", res.FilteredMRR, res.MRR)
	}
	if res.FilteredMRR != 1 {
		t.Fatalf("filtered MRR %v, want 1", res.FilteredMRR)
	}
}

func TestFilteredAtLeastRaw(t *testing.T) {
	t.Parallel()
	// Property on a trained-ish random setup: filtered MRR >= raw MRR.
	cfg := kg.GenConfig{Entities: 120, Relations: 8, Triples: 2000, Seed: 3}
	d := kg.Generate(cfg)
	f := kg.NewFilterIndex(d)
	m := model.NewComplEx(4)
	p := model.NewParams(m, d.NumEntities, d.NumRelations)
	p.Init(m, xrand.New(5))
	res := LinkPrediction(m, p, d, f, 50, xrand.New(7))
	if res.FilteredMRR < res.MRR {
		t.Fatalf("filtered %v < raw %v", res.FilteredMRR, res.MRR)
	}
	if res.Hits1 > res.Hits3 || res.Hits3 > res.Hits10 {
		t.Fatalf("hits not monotone: %v %v %v", res.Hits1, res.Hits3, res.Hits10)
	}
	if res.Triples != 50 {
		t.Fatalf("subsample size %d", res.Triples)
	}
}

func TestLinkPredictionEmptyTest(t *testing.T) {
	t.Parallel()
	d := &kg.Dataset{NumEntities: 3, NumRelations: 1}
	f := kg.NewFilterIndex(d)
	res := LinkPrediction(&fixedModel{def: 0}, nil, d, f, 0, xrand.New(1))
	if res.MRR != 0 || res.Triples != 0 {
		t.Fatalf("empty test: %+v", res)
	}
}

func TestBestThresholdSeparable(t *testing.T) {
	t.Parallel()
	samples := []scored{
		{s: -2, pos: false}, {s: -1, pos: false},
		{s: 1, pos: true}, {s: 2, pos: true},
	}
	thr := bestThreshold(samples)
	if thr <= -1 || thr > 1 {
		t.Fatalf("threshold %v not in separating gap", thr)
	}
}

func TestBestThresholdAllPositive(t *testing.T) {
	t.Parallel()
	samples := []scored{{s: 1, pos: true}, {s: 2, pos: true}}
	thr := bestThreshold(samples)
	if thr > 1 {
		t.Fatalf("threshold %v misclassifies a positive", thr)
	}
	if bestThreshold(nil) != 0 {
		t.Fatal("empty threshold should be 0")
	}
}

func TestTripleClassificationPerfectlySeparable(t *testing.T) {
	t.Parallel()
	// Model scores known facts high and everything else low -> TCA 100%.
	d := kg.Generate(kg.GenConfig{Entities: 60, Relations: 5, Triples: 800, Seed: 9})
	f := kg.NewFilterIndex(d)
	m := &fixedModel{scores: map[kg.Triple]float32{}, def: -5}
	for _, split := range [][]kg.Triple{d.Train, d.Valid, d.Test} {
		for _, tr := range split {
			m.scores[tr] = 5
		}
	}
	res := TripleClassification(m, nil, d, f, xrand.New(11))
	if res.Accuracy != 100 {
		t.Fatalf("separable TCA = %v", res.Accuracy)
	}
	if res.Triples != len(d.Test) {
		t.Fatalf("triples %d", res.Triples)
	}
}

func TestTripleClassificationRandomModelNearChance(t *testing.T) {
	t.Parallel()
	d := kg.Generate(kg.GenConfig{Entities: 100, Relations: 6, Triples: 3000, Seed: 13})
	f := kg.NewFilterIndex(d)
	m := model.NewComplEx(4)
	p := model.NewParams(m, d.NumEntities, d.NumRelations)
	p.Init(m, xrand.New(17))
	res := TripleClassification(m, p, d, f, xrand.New(19))
	// An untrained model should sit near 50%, with slack for threshold
	// overfitting on small validation relations.
	if res.Accuracy < 35 || res.Accuracy > 75 {
		t.Fatalf("untrained TCA = %v, expected near chance", res.Accuracy)
	}
}

func TestTripleClassificationEmptyTest(t *testing.T) {
	t.Parallel()
	d := &kg.Dataset{NumEntities: 5, NumRelations: 1}
	f := kg.NewFilterIndex(d)
	res := TripleClassification(&fixedModel{def: 0}, nil, d, f, xrand.New(1))
	if res.Accuracy != 0 || res.Triples != 0 {
		t.Fatalf("empty TCA: %+v", res)
	}
}

func TestCorruptAvoidsKnownFacts(t *testing.T) {
	t.Parallel()
	d := kg.Generate(kg.GenConfig{Entities: 50, Relations: 4, Triples: 500, Seed: 21})
	f := kg.NewFilterIndex(d)
	rng := xrand.New(23)
	for i := 0; i < 200; i++ {
		tr := d.Test[i%len(d.Test)]
		neg := corrupt(tr, d.NumEntities, f, rng)
		if neg == tr {
			t.Fatal("corrupt returned the positive")
		}
		if neg.R != tr.R {
			t.Fatal("corrupt changed the relation")
		}
	}
}

func BenchmarkLinkPrediction(b *testing.B) {
	d := kg.Generate(kg.GenConfig{Entities: 500, Relations: 20, Triples: 5000, Seed: 1})
	f := kg.NewFilterIndex(d)
	m := model.NewComplEx(16)
	p := model.NewParams(m, d.NumEntities, d.NumRelations)
	p.Init(m, xrand.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LinkPrediction(m, p, d, f, 20, xrand.New(uint64(i)))
	}
}

func TestAUCPerfectModel(t *testing.T) {
	t.Parallel()
	d := kg.Generate(kg.GenConfig{Entities: 60, Relations: 5, Triples: 800, Seed: 31})
	f := kg.NewFilterIndex(d)
	m := &fixedModel{scores: map[kg.Triple]float32{}, def: -5}
	for _, split := range [][]kg.Triple{d.Train, d.Valid, d.Test} {
		for _, tr := range split {
			m.scores[tr] = 5
		}
	}
	if got := AUC(m, nil, d, f, xrand.New(1)); got != 1 {
		t.Fatalf("perfect AUC = %v", got)
	}
}

func TestAUCConstantModelIsHalf(t *testing.T) {
	t.Parallel()
	// All scores equal: midrank ties give AUC exactly 0.5.
	d := kg.Generate(kg.GenConfig{Entities: 50, Relations: 4, Triples: 600, Seed: 33})
	f := kg.NewFilterIndex(d)
	m := &fixedModel{def: 1}
	if got := AUC(m, nil, d, f, xrand.New(2)); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("constant-model AUC = %v, want 0.5", got)
	}
}

func TestAUCRandomModelNearHalf(t *testing.T) {
	t.Parallel()
	d := kg.Generate(kg.GenConfig{Entities: 150, Relations: 8, Triples: 3000, Seed: 35})
	f := kg.NewFilterIndex(d)
	m := model.NewComplEx(4)
	p := model.NewParams(m, d.NumEntities, d.NumRelations)
	p.Init(m, xrand.New(3))
	got := AUC(m, p, d, f, xrand.New(4))
	if got < 0.35 || got > 0.65 {
		t.Fatalf("untrained AUC = %v, expected near 0.5", got)
	}
}

func TestAUCEmptyTest(t *testing.T) {
	t.Parallel()
	d := &kg.Dataset{NumEntities: 5, NumRelations: 1}
	f := kg.NewFilterIndex(d)
	if got := AUC(&fixedModel{def: 0}, nil, d, f, xrand.New(1)); got != 0 {
		t.Fatalf("empty AUC = %v", got)
	}
}

func TestMeanRank(t *testing.T) {
	t.Parallel()
	// Perfect model: MR exactly 1.
	d := &kg.Dataset{
		NumEntities:  4,
		NumRelations: 1,
		Test:         []kg.Triple{{H: 0, R: 0, T: 1}},
	}
	f := kg.NewFilterIndex(d)
	m := &fixedModel{scores: map[kg.Triple]float32{{H: 0, R: 0, T: 1}: 10}, def: -1}
	res := LinkPrediction(m, nil, d, f, 0, xrand.New(1))
	if res.MR != 1 {
		t.Fatalf("perfect MR = %v", res.MR)
	}
	// One tail corruption wins: tail rank 2, head rank 1 -> MR 1.5.
	m2 := &fixedModel{scores: map[kg.Triple]float32{
		{H: 0, R: 0, T: 1}: 5,
		{H: 0, R: 0, T: 2}: 7,
	}, def: -1}
	res = LinkPrediction(m2, nil, d, f, 0, xrand.New(1))
	if res.MR != 1.5 {
		t.Fatalf("MR = %v, want 1.5", res.MR)
	}
}

// Property: AUC equals the brute-force fraction of correctly ordered
// (positive, negative) pairs, counting ties as half.
func TestQuickAUCMatchesBruteForce(t *testing.T) {
	t.Parallel()
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		d := &kg.Dataset{NumEntities: 12, NumRelations: 2}
		m := &fixedModel{scores: map[kg.Triple]float32{}, def: 0}
		for i := 0; i < 8; i++ {
			tr := kg.Triple{
				H: int32(rng.Intn(12)), R: int32(rng.Intn(2)), T: int32(rng.Intn(12)),
			}
			if tr.H == tr.T {
				continue
			}
			d.Test = append(d.Test, tr)
		}
		if len(d.Test) == 0 {
			return true
		}
		// Quantized scores force plenty of ties.
		scoreOf := func(tr kg.Triple) float32 {
			return float32(int(tr.H+2*tr.R+3*tr.T) % 4)
		}
		filter := kg.NewFilterIndex(d)
		// Deterministic negatives: replay the same rng stream for both the
		// AUC computation and the brute force.
		evalRng := xrand.New(seed + 1)
		var pos, neg []float32
		for _, tr := range d.Test {
			n := corrupt(tr, d.NumEntities, filter, evalRng)
			pos = append(pos, scoreOf(tr))
			neg = append(neg, scoreOf(n))
		}
		var correct float64
		for _, ps := range pos {
			for _, ns := range neg {
				switch {
				case ps > ns:
					correct++
				case ps == ns:
					correct += 0.5
				}
			}
		}
		want := correct / float64(len(pos)*len(neg))
		for _, tr := range d.Test {
			m.scores[tr] = scoreOf(tr)
		}
		m2 := &scoreFuncModel{f: scoreOf}
		got := AUC(m2, nil, d, filter, xrand.New(seed+1))
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// scoreFuncModel scores triples with a pure function (for properties).
type scoreFuncModel struct{ f func(kg.Triple) float32 }

func (s *scoreFuncModel) Name() string { return "fn" }
func (s *scoreFuncModel) Dim() int     { return 1 }
func (s *scoreFuncModel) Width() int   { return 1 }
func (s *scoreFuncModel) Score(_ *model.Params, t kg.Triple) float32 {
	return s.f(t)
}
func (s *scoreFuncModel) ScoreRows(_, _, _ []float32) float32 { return 0 }
func (s *scoreFuncModel) AccumulateScoreGrad(*model.Params, kg.Triple, float32, []float32, []float32, []float32) {
}
func (s *scoreFuncModel) AccumulateScoreGradRows(_, _, _ []float32, _ float32, _, _, _ []float32) {}
func (s *scoreFuncModel) ScoreFlops() float64                                                     { return 1 }
func (s *scoreFuncModel) GradFlops() float64                                                      { return 1 }

// serialLinkPrediction is the evaluation loop as it stood before the block
// scorer: one Model.Score call per candidate on one goroutine. It is the
// reference LinkPrediction must equal field for field.
func serialLinkPrediction(m model.Model, p *model.Params, d *kg.Dataset, f *kg.FilterIndex, test []kg.Triple) RankResult {
	res := RankResult{Triples: len(test)}
	var sumRaw, sumFiltered, sumRank float64
	var h1, h3, h10 int
	for _, tr := range test {
		for side := 0; side < 2; side++ {
			replace := func(e int) kg.Triple {
				if side == 0 {
					return kg.Triple{H: int32(e), R: tr.R, T: tr.T}
				}
				return kg.Triple{H: tr.H, R: tr.R, T: int32(e)}
			}
			trueScore := m.Score(p, tr)
			rawRank, filtRank := 1, 1
			for e := 0; e < d.NumEntities; e++ {
				if m.Score(p, replace(e)) <= trueScore {
					continue
				}
				rawRank++
				if !f.Contains(replace(e)) {
					filtRank++
				}
			}
			sumRaw += 1 / float64(rawRank)
			sumFiltered += 1 / float64(filtRank)
			sumRank += float64(filtRank)
			if filtRank <= 1 {
				h1++
			}
			if filtRank <= 3 {
				h3++
			}
			if filtRank <= 10 {
				h10++
			}
		}
	}
	n := float64(2 * len(test))
	res.MRR, res.FilteredMRR, res.MR = sumRaw/n, sumFiltered/n, sumRank/n
	res.Hits1, res.Hits3, res.Hits10 = float64(h1)/n, float64(h3)/n, float64(h10)/n
	return res
}

// TestLinkPredictionEqualsSerialReference: the block-scored, fanned-out
// evaluation returns the very struct the serial per-candidate loop does, for
// every model and whatever GOMAXPROCS is; DetailedLinkPrediction's overall
// row agrees with it.
func TestLinkPredictionEqualsSerialReference(t *testing.T) {
	d := kg.Generate(kg.GenConfig{Entities: 150, Relations: 6, Triples: 2500, Seed: 41})
	f := kg.NewFilterIndex(d)
	for _, name := range []string{"complex", "distmult", "transe"} {
		m := model.New(name, 7)
		p := model.NewParams(m, d.NumEntities, d.NumRelations)
		p.Init(m, xrand.New(43))
		want := serialLinkPrediction(m, p, d, f, d.Test)
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			got := LinkPrediction(m, p, d, f, 0, xrand.New(1))
			det := DetailedLinkPrediction(m, p, d, f, 0, xrand.New(1))
			runtime.GOMAXPROCS(prev)
			if got != want {
				t.Fatalf("%s GOMAXPROCS %d: LinkPrediction %+v, serial reference %+v", name, procs, got, want)
			}
			if mean := (det.Overall.HeadMRR + det.Overall.TailMRR) / 2; math.Abs(mean-want.FilteredMRR) > 1e-12 || det.Overall.Triples != want.Triples {
				t.Fatalf("%s GOMAXPROCS %d: detailed overall %+v disagrees with filtered MRR %v", name, procs, det.Overall, want.FilteredMRR)
			}
		}
	}
}
