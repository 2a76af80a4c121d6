package bucket

import (
	"testing"

	"kgedist/internal/kg"
)

func bDataset() *kg.Dataset {
	return kg.Generate(kg.GenConfig{
		Name: "bucket-test", Entities: 400, Relations: 30, Triples: 6000,
		Communities: 8, Seed: 42,
	})
}

func TestRoundPairsDisjointAndComplete(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 8} {
		n := 2 * p
		seen := map[[2]int]int{}
		for round := 0; round < n-1; round++ {
			pairs := roundPairs(p, round)
			if len(pairs) != p {
				t.Fatalf("p=%d round %d: %d pairs", p, round, len(pairs))
			}
			used := map[int]bool{}
			for _, pr := range pairs {
				for _, b := range pr {
					if b < 0 || b >= n {
						t.Fatalf("p=%d round %d: bucket %d out of range", p, round, b)
					}
					if used[b] {
						t.Fatalf("p=%d round %d: bucket %d used twice", p, round, b)
					}
					used[b] = true
				}
				a, c := pr[0], pr[1]
				if a > c {
					a, c = c, a
				}
				seen[[2]int{a, c}]++
			}
			if len(used) != n {
				t.Fatalf("p=%d round %d: only %d buckets used", p, round, len(used))
			}
		}
		// All (2p choose 2) unordered pairs covered exactly once.
		want := n * (n - 1) / 2
		if len(seen) != want {
			t.Fatalf("p=%d: covered %d distinct pairs, want %d", p, len(seen), want)
		}
		for pr, cnt := range seen {
			if cnt != 1 {
				t.Fatalf("p=%d: pair %v trained %d times", p, pr, cnt)
			}
		}
	}
}

func TestValidateAndBadInputs(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"epochs 0":     func(c *Config) { c.Epochs = 0 },
		"model rotate": func(c *Config) { c.ModelName = "rotate" },
		"model empty":  func(c *Config) { c.ModelName = "" },
	} {
		bad := DefaultConfig()
		mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: bad config accepted", name)
		}
		if _, err := Train(bad, bDataset(), 2); err == nil {
			t.Errorf("%s: Train accepted a bad config", name)
		}
	}
	if _, err := Train(DefaultConfig(), bDataset(), 0); err == nil {
		t.Fatal("0 workers accepted")
	}
	if _, err := Train(DefaultConfig(), &kg.Dataset{NumEntities: 3, NumRelations: 1}, 2); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestBucketTrainingLearns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Dim = 8
	cfg.Epochs = 20
	cfg.TestSample = 60
	res, err := Train(cfg, bDataset(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 2 || res.Buckets != 4 {
		t.Fatalf("shape %+v", res)
	}
	if res.TCA < 65 {
		t.Fatalf("bucket training TCA = %v, expected learning", res.TCA)
	}
	if res.TotalHours <= 0 {
		t.Fatal("no virtual time")
	}
}

func TestEntityCommNotEliminated(t *testing.T) {
	// The paper's §2 point about PBG: entity communication is reduced but
	// NOT eliminated (buckets migrate), and relation communication remains.
	cfg := DefaultConfig()
	cfg.Dim = 8
	cfg.Epochs = 3
	cfg.TestSample = 20
	res, err := Train(cfg, bDataset(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.EntityCommBytes == 0 {
		t.Fatal("bucket migrations recorded no entity bytes")
	}
	if res.RelationCommBytes == 0 {
		t.Fatal("relation all-reduce recorded no bytes")
	}
}

func TestSingleWorkerNoEntityComm(t *testing.T) {
	// One worker holds both buckets every round: nothing migrates between
	// workers.
	cfg := DefaultConfig()
	cfg.Dim = 4
	cfg.Epochs = 2
	cfg.TestSample = 10
	res, err := Train(cfg, bDataset(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.EntityCommBytes != 0 {
		t.Fatalf("single worker migrated %d entity bytes", res.EntityCommBytes)
	}
}
