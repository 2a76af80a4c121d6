package kg

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestGenerateBasics(t *testing.T) {
	t.Parallel()
	cfg := GenConfig{Name: "t", Entities: 800, Relations: 50, Triples: 10000, Seed: 7}
	d := Generate(cfg)
	if d.Name != "t" || d.NumEntities != 800 || d.NumRelations != 50 {
		t.Fatalf("metadata wrong: %+v", d)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if d.Size() < 9000 {
		t.Fatalf("too many dropped duplicates: size %d", d.Size())
	}
	if len(d.Valid) == 0 || len(d.Test) == 0 {
		t.Fatal("empty validation or test split")
	}
	if len(d.Train) <= len(d.Valid)+len(d.Test) {
		t.Fatal("train split not dominant")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	t.Parallel()
	a := Generate(GenConfig{Entities: 200, Relations: 10, Triples: 1000, Seed: 5})
	b := Generate(GenConfig{Entities: 200, Relations: 10, Triples: 1000, Seed: 5})
	if len(a.Train) != len(b.Train) {
		t.Fatal("non-deterministic sizes")
	}
	for i := range a.Train {
		if a.Train[i] != b.Train[i] {
			t.Fatalf("non-deterministic triple %d", i)
		}
	}
	c := Generate(GenConfig{Entities: 200, Relations: 10, Triples: 1000, Seed: 6})
	diff := 0
	for i := range a.Train {
		if i < len(c.Train) && a.Train[i] != c.Train[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds gave identical data")
	}
}

func TestGenerateNoDuplicatesNoSelfLoops(t *testing.T) {
	t.Parallel()
	d := Generate(GenConfig{Entities: 300, Relations: 20, Triples: 5000, Seed: 3})
	seen := map[Triple]bool{}
	for _, split := range [][]Triple{d.Train, d.Valid, d.Test} {
		for _, tr := range split {
			if tr.H == tr.T {
				t.Fatalf("self loop %+v", tr)
			}
			if seen[tr] {
				t.Fatalf("duplicate %+v", tr)
			}
			seen[tr] = true
		}
	}
}

func TestGenerateZipfSkew(t *testing.T) {
	t.Parallel()
	d := Generate(GenConfig{Entities: 1000, Relations: 100, Triples: 20000, Seed: 9})
	h := d.RelationHistogram()
	// The most frequent relation should dominate the median one decisively.
	max, nonZero := 0, 0
	for _, c := range h {
		if c > max {
			max = c
		}
		if c > 0 {
			nonZero++
		}
	}
	if nonZero < 50 {
		t.Fatalf("only %d relations used", nonZero)
	}
	if float64(max) < 5*float64(len(d.Train))/float64(nonZero) {
		t.Fatalf("relation histogram too flat: max %d over %d relations", max, nonZero)
	}
}

func TestGenerateCommunityStructure(t *testing.T) {
	t.Parallel()
	// With low noise, heads of a given relation should concentrate in one
	// community (entities congruent mod Communities).
	cfg := GenConfig{Entities: 600, Relations: 30, Triples: 10000,
		Communities: 6, NoiseFrac: 0.01, Seed: 11}
	d := Generate(cfg)
	byRel := map[int32]map[int]int{}
	for _, tr := range d.Train {
		if byRel[tr.R] == nil {
			byRel[tr.R] = map[int]int{}
		}
		byRel[tr.R][int(tr.H)%6]++
	}
	checked := 0
	for _, comms := range byRel {
		total, max := 0, 0
		for _, c := range comms {
			total += c
			if c > max {
				max = c
			}
		}
		if total < 100 {
			continue
		}
		checked++
		if float64(max)/float64(total) < 0.9 {
			t.Fatalf("relation heads not concentrated: %v", comms)
		}
	}
	if checked == 0 {
		t.Fatal("no relation had enough triples to check")
	}
}

func TestGeneratePanicsOnBadConfig(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Generate(GenConfig{Entities: 1, Relations: 1, Triples: 10})
}

func TestPresets(t *testing.T) {
	t.Parallel()
	for _, cfg := range []GenConfig{FB15KMini(1), FB250KMini(1)} {
		if cfg.Entities == 0 || cfg.Relations == 0 || cfg.Triples == 0 {
			t.Fatalf("preset %q incomplete", cfg.Name)
		}
	}
	if FB15KFull(1).Entities != 14951 || FB15KFull(1).Relations != 1345 {
		t.Fatal("FB15KFull dimensions drifted from the paper")
	}
	if FB250KFull(1).Entities != 240000 || FB250KFull(1).Relations != 9280 {
		t.Fatal("FB250KFull dimensions drifted from the paper")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	t.Parallel()
	dir := filepath.Join(t.TempDir(), "ds")
	d := Generate(GenConfig{Name: "rt", Entities: 150, Relations: 12, Triples: 900, Seed: 4})
	if err := SaveDir(d, dir); err != nil {
		t.Fatalf("SaveDir: %v", err)
	}
	got, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if got.NumEntities != d.NumEntities || got.NumRelations != d.NumRelations {
		t.Fatalf("counts differ: %+v", got)
	}
	if len(got.Train) != len(d.Train) || len(got.Valid) != len(d.Valid) || len(got.Test) != len(d.Test) {
		t.Fatal("split sizes differ")
	}
	for i := range d.Train {
		if got.Train[i] != d.Train[i] {
			t.Fatalf("train triple %d differs", i)
		}
	}
}

func TestLoadDirErrors(t *testing.T) {
	t.Parallel()
	if _, err := LoadDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("expected error for missing dir")
	}
}

func TestScaled(t *testing.T) {
	t.Parallel()
	base := FB15KMini(1)
	up := base.Scaled(2)
	if up.Entities != 2*base.Entities || up.Relations != 2*base.Relations || up.Triples != 2*base.Triples {
		t.Fatalf("Scaled(2) = %+v", up)
	}
	if up.Communities != base.Communities {
		t.Fatalf("Scaled changed the community count: %d -> %d", base.Communities, up.Communities)
	}
	if up.Name != "fb15k-mini-x2" {
		t.Fatalf("Scaled name = %q", up.Name)
	}
	if same := base.Scaled(1); same != base {
		t.Fatalf("Scaled(1) changed the config: %+v", same)
	}
	// Down-scaling clamps every size knob at 1 and still generates.
	tiny := GenConfig{Name: "t", Entities: 40, Relations: 2, Triples: 200, Seed: 3}.Scaled(0.1)
	if tiny.Entities != 4 || tiny.Relations != 1 || tiny.Triples != 20 {
		t.Fatalf("Scaled(0.1) = %+v", tiny)
	}
	d := Generate(tiny)
	if d.NumEntities != 4 || len(d.Train)+len(d.Valid)+len(d.Test) == 0 {
		t.Fatalf("tiny scaled dataset: %+v", d)
	}
	// The scaled graph keeps the planted structure: same community count,
	// proportionally larger clusters, so per-community degree stats track.
	big := Generate(base.Scaled(2))
	if big.NumEntities != 2*base.Entities {
		t.Fatalf("generated %d entities", big.NumEntities)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Scaled(0) did not panic")
		}
	}()
	base.Scaled(0)
}

// TestLoad: every preset name resolves to its generator, the two mini
// presets load end to end, a directory wins over the preset, and an unknown
// name is an error listing the presets. The full presets are checked by
// configuration only: fb250k-full is 16 M triples.
func TestLoad(t *testing.T) {
	t.Parallel()
	const seed = 3
	for name, want := range map[string]GenConfig{
		"fb15k-mini":  FB15KMini(seed),
		"fb250k-mini": FB250KMini(seed),
		"fb15k-full":  FB15KFull(seed),
		"fb250k-full": FB250KFull(seed),
	} {
		if got := presets[name](seed); got != want || got.Name != name {
			t.Errorf("preset %s resolves to %+v, want %+v", name, got, want)
		}
	}
	for _, name := range []string{"fb15k-mini", "fb250k-mini"} {
		d, err := Load(name, "", "", seed)
		if err != nil || d.Name != name || d.NumEntities != presets[name](seed).Entities {
			t.Fatalf("Load(%s): %v, %v", name, d, err)
		}
	}
	dir := t.TempDir()
	small := Generate(GenConfig{Name: "small", Entities: 50, Relations: 5, Triples: 400, Seed: seed})
	if err := SaveDir(small, dir); err != nil {
		t.Fatal(err)
	}
	d, err := Load("no-such-preset", dir, "", seed)
	if err != nil || d.NumEntities != 50 || len(d.Train) != len(small.Train) {
		t.Fatalf("Load(dir): %+v, %v", d, err)
	}
	if _, err := Load("fb15k", "", "", seed); err == nil || !strings.Contains(err.Error(), "fb250k-full") {
		t.Fatalf("Load(fb15k): %v, want an unknown-preset error listing the presets", err)
	}
}
