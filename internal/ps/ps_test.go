package ps

import (
	"testing"

	"kgedist/internal/kg"
)

func psDataset() *kg.Dataset {
	return kg.Generate(kg.GenConfig{
		Name: "ps-test", Entities: 400, Relations: 40, Triples: 6000,
		Communities: 8, Seed: 21,
	})
}

func psConfig() Config {
	cfg := DefaultConfig()
	cfg.Dim = 8
	cfg.BaseLR = 0.02
	cfg.BatchSize = 500
	cfg.MaxEpochs = 10
	cfg.TestSample = 50
	cfg.Seed = 5
	return cfg
}

func TestValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"dim 0":             func(c *Config) { c.Dim = 0 },
		"model rotate":      func(c *Config) { c.ModelName = "rotate" },
		"model empty":       func(c *Config) { c.ModelName = "" },
		"optimizer adagrad": func(c *Config) { c.OptimizerName = "adagrad" },
		"optimizer empty":   func(c *Config) { c.OptimizerName = "" },
	} {
		bad := DefaultConfig()
		mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
		if _, err := Train(bad, psDataset(), 1, 1); err == nil {
			t.Errorf("%s: Train accepted an invalid config", name)
		}
	}
}

func TestTrainRejectsBadInputs(t *testing.T) {
	d := psDataset()
	if _, err := Train(psConfig(), d, 0, 1); err == nil {
		t.Fatal("accepted 0 workers")
	}
	if _, err := Train(psConfig(), d, 2, 0); err == nil {
		t.Fatal("accepted 0 servers")
	}
	empty := &kg.Dataset{NumEntities: 10, NumRelations: 2}
	if _, err := Train(psConfig(), empty, 1, 1); err == nil {
		t.Fatal("accepted empty dataset")
	}
}

func TestPSLearns(t *testing.T) {
	cfg := psConfig()
	cfg.MaxEpochs = 25
	res, err := Train(cfg, psDataset(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs != 25 {
		t.Fatalf("epochs = %d", res.Epochs)
	}
	if res.TCA < 70 {
		t.Fatalf("PS TCA = %v, expected learning", res.TCA)
	}
	if res.MRR < 0.05 {
		t.Fatalf("PS MRR = %v", res.MRR)
	}
	if res.CommBytes == 0 || res.PullBytes == 0 || res.PushBytes == 0 {
		t.Fatalf("communication not recorded: %+v", res)
	}
	if res.TotalHours <= 0 {
		t.Fatal("no virtual time charged")
	}
}

func TestMoreServersRelieveBottleneck(t *testing.T) {
	// The paper's intro: one server is a bottleneck; more servers shard
	// the volume. With fixed workers, total time must drop (or at least
	// not rise) as servers grow, while total bytes stay the same.
	cfg := psConfig()
	cfg.MaxEpochs = 3
	d := psDataset()
	r1, err := Train(cfg, d, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Train(cfg, d, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r4.CommHours >= r1.CommHours {
		t.Fatalf("4 servers (%v comm h) not cheaper than 1 (%v comm h)", r4.CommHours, r1.CommHours)
	}
	if r1.CommBytes != r4.CommBytes {
		t.Fatalf("byte volume should not depend on server count: %d vs %d", r1.CommBytes, r4.CommBytes)
	}
}

func TestDeterministic(t *testing.T) {
	cfg := psConfig()
	cfg.MaxEpochs = 3
	d := psDataset()
	a, err := Train(cfg, d, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(cfg, d, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.MRR != b.MRR || a.CommBytes != b.CommBytes {
		t.Fatalf("non-deterministic PS training: %+v vs %+v", a, b)
	}
}
