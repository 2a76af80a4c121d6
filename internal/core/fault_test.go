package core

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"kgedist/internal/model"
	"kgedist/internal/mpi"
	"kgedist/internal/simnet"
)

// faultConfig returns the shared test configuration with a crash scheduled
// mid-training. On the core test dataset with 4 nodes an epoch costs about
// 1.4 virtual milliseconds, so a crash at 5 ms lands inside epoch 4 — after
// the epoch-2 checkpoint, in the middle of a batch loop, never on an epoch
// boundary.
func faultConfig(crashRank int) Config {
	cfg := testConfig()
	cfg.FaultPlan = &simnet.FaultPlan{Faults: []simnet.Fault{
		{Kind: simnet.FaultCrash, Rank: crashRank, At: 0.005},
	}}
	cfg.Recover = true
	cfg.CheckpointEvery = 2
	return cfg
}

func TestTrainFaultWithoutRecoverSurfacesRankFailure(t *testing.T) {
	d := testDataset()
	cfg := faultConfig(1)
	cfg.Recover = false
	_, err := Train(cfg, d, 4)
	var rf *mpi.RankFailedError
	if !errors.As(err, &rf) {
		t.Fatalf("Train = %v, want *mpi.RankFailedError", err)
	}
	if len(rf.Ranks) != 1 || rf.Ranks[0] != 1 {
		t.Fatalf("failed ranks = %v, want [1]", rf.Ranks)
	}
}

func TestTrainRecoversFromMidEpochCrash(t *testing.T) {
	d := testDataset()
	cfg := faultConfig(1)
	res, err := Train(cfg, d, 4)
	if err != nil {
		t.Fatalf("Train with recovery: %v", err)
	}
	rc := res.Recovery
	if rc.FaultsInjected != 1 || rc.RankFailures != 1 || rc.Recoveries != 1 {
		t.Fatalf("recovery stats = %+v, want 1 fault / 1 failure / 1 recovery", rc)
	}
	if rc.FinalNodes != 3 || rc.Degraded {
		t.Fatalf("recovery stats = %+v, want 3 final nodes without degradation", rc)
	}
	if rc.Checkpoints == 0 {
		t.Fatalf("recovery stats = %+v, want periodic checkpoints", rc)
	}
	// The crash lands after the epoch-2 checkpoint, so at least the partial
	// epoch in flight is lost and replayed.
	if rc.EpochsLost < 1 {
		t.Fatalf("recovery stats = %+v, want at least one replayed epoch", rc)
	}
	if rc.RecoverySeconds <= 0 {
		t.Fatalf("recovery stats = %+v, want recovery time charged", rc)
	}
	if res.Epochs != cfg.MaxEpochs {
		t.Fatalf("epochs = %d, want the full %d after resuming", res.Epochs, cfg.MaxEpochs)
	}
	if len(res.PerEpoch) != res.Epochs {
		t.Fatalf("per-epoch records %d != epochs %d (replayed epochs must not duplicate)", len(res.PerEpoch), res.Epochs)
	}
	for i, e := range res.PerEpoch {
		if e.Epoch != i+1 {
			t.Fatalf("per-epoch record %d is epoch %d, want %d", i, e.Epoch, i+1)
		}
	}
}

// TestTrainRecoveryDeterministicFaultReplay is the reproducibility contract
// for fault injection: the same seed and the same fault plan yield a
// bit-identical Result — metrics, epoch records, and recovery accounting —
// even when a rank dies mid-epoch and the run shrinks and replays.
func TestTrainRecoveryDeterministicFaultReplay(t *testing.T) {
	d := testDataset()
	runOnce := func() *Result {
		t.Helper()
		res, err := Train(faultConfig(1), d, 4)
		if err != nil {
			t.Fatalf("Train: %v", err)
		}
		return res
	}
	a, b := runOnce(), runOnce()
	if a.MRR != b.MRR || a.TCA != b.TCA || a.Hits10 != b.Hits10 ||
		a.Epochs != b.Epochs || a.CommBytes != b.CommBytes || a.TotalHours != b.TotalHours {
		t.Fatalf("non-deterministic faulty training:\n%+v\nvs\n%+v", a, b)
	}
	if a.Recovery != b.Recovery {
		t.Fatalf("recovery stats diverged: %+v vs %+v", a.Recovery, b.Recovery)
	}
	if !reflect.DeepEqual(a.PerEpoch, b.PerEpoch) {
		t.Fatalf("per-epoch records diverged:\n%+v\nvs\n%+v", a.PerEpoch, b.PerEpoch)
	}
}

// TestTrainRecoveryReachesFaultFreeQuality: shrink-and-continue must land
// within 10% relative MRR of the fault-free run on the mini dataset (the
// ISSUE acceptance bar).
func TestTrainRecoveryReachesFaultFreeQuality(t *testing.T) {
	skipIfShort(t)
	d := testDataset()
	clean := testConfig()
	clean.MaxEpochs = 24
	clean.StopPatience = 24
	clean.TestSample = 300
	base, err := Train(clean, d, 4)
	if err != nil {
		t.Fatalf("fault-free Train: %v", err)
	}
	faulty := faultConfig(1)
	faulty.MaxEpochs = 24
	faulty.StopPatience = 24
	faulty.TestSample = 300
	rec, err := Train(faulty, d, 4)
	if err != nil {
		t.Fatalf("faulty Train: %v", err)
	}
	if rec.Recovery.Recoveries == 0 {
		t.Fatal("fault never fired; test misconfigured")
	}
	diff := rec.MRR - base.MRR
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.10*base.MRR {
		t.Fatalf("recovered MRR %v vs fault-free %v: off by %.1f%%, want <= 10%%",
			rec.MRR, base.MRR, 100*diff/base.MRR)
	}
}

// A two-node run that loses a rank is left with one survivor, which the
// channel world runs on as a single fault-free node.
func TestTrainFaultDegradesToSingleNode(t *testing.T) {
	d := testDataset()
	cfg := faultConfig(1)
	res, err := Train(cfg, d, 2)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	rc := res.Recovery
	if !rc.Degraded || rc.FinalNodes != 1 {
		t.Fatalf("recovery stats = %+v, want degradation to a single node", rc)
	}
	if res.Epochs != cfg.MaxEpochs {
		t.Fatalf("epochs = %d, want %d", res.Epochs, cfg.MaxEpochs)
	}
}

func TestTrainFaultRepeatedCrashesShrinkTwice(t *testing.T) {
	d := testDataset()
	cfg := faultConfig(1)
	// Second crash targets post-shrink rank 1 (old rank 2) a few
	// milliseconds into the replay, past the first recovery's 30 s backoff
	// on the shared clock.
	cfg.FaultPlan.Faults = append(cfg.FaultPlan.Faults,
		simnet.Fault{Kind: simnet.FaultCrash, Rank: 2, At: 30.010})
	res, err := Train(cfg, d, 4)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	rc := res.Recovery
	if rc.Recoveries != 2 || rc.RankFailures != 2 {
		t.Fatalf("recovery stats = %+v, want two recoveries", rc)
	}
	if rc.FinalNodes != 2 || rc.Degraded {
		t.Fatalf("recovery stats = %+v, want 2 survivors without degradation", rc)
	}
}

func TestTrainCheckpointFileRoundTrip(t *testing.T) {
	d := testDataset()
	cfg := testConfig()
	cfg.CheckpointEvery = 3
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "train.ckpt")
	res, err := Train(cfg, d, 2)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if want := cfg.MaxEpochs / cfg.CheckpointEvery; res.Recovery.Checkpoints != want {
		t.Fatalf("checkpoints = %d, want %d", res.Recovery.Checkpoints, want)
	}
	m, params, err := model.LoadCheckpoint(cfg.CheckpointPath)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	if m.Name() != cfg.ModelName {
		t.Fatalf("checkpoint model = %q, want %q", m.Name(), cfg.ModelName)
	}
	if params.Entity.Rows != d.NumEntities || params.Relation.Rows != d.NumRelations {
		t.Fatalf("checkpoint shape %dx%d entities / %d relations, want %d / %d",
			params.Entity.Rows, params.Entity.Cols, params.Relation.Rows,
			d.NumEntities, d.NumRelations)
	}
}

func TestTrainCheckpointWriteFailureSurfaces(t *testing.T) {
	d := testDataset()
	cfg := testConfig()
	cfg.CheckpointEvery = 2
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "missing-dir", "train.ckpt")
	_, err := Train(cfg, d, 2)
	if err == nil {
		t.Fatal("Train succeeded despite unwritable checkpoint path")
	}
	var rf *mpi.RankFailedError
	if errors.As(err, &rf) {
		t.Fatalf("checkpoint write failure misreported as rank failure: %v", err)
	}
}

func TestTrainFaultSlowdownOnlyChangesTimeNotResult(t *testing.T) {
	d := testDataset()
	clean := testConfig()
	base, err := Train(clean, d, 4)
	if err != nil {
		t.Fatal(err)
	}
	slowed := testConfig()
	slowed.FaultPlan = &simnet.FaultPlan{Faults: []simnet.Fault{
		{Kind: simnet.FaultSlow, Rank: 0, At: 0.002, Duration: 0.004, Factor: 4},
		{Kind: simnet.FaultDelay, Rank: 0, At: 0.006, Duration: 0.003, Factor: 8},
	}}
	res, err := Train(slowed, d, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Performance faults perturb the virtual clock, never the learned model.
	if res.MRR != base.MRR || res.TCA != base.TCA || res.Epochs != base.Epochs {
		t.Fatalf("slow/delay faults changed the result: MRR %v vs %v", res.MRR, base.MRR)
	}
	if res.TotalHours <= base.TotalHours {
		t.Fatalf("slow/delay faults did not cost time: %v vs %v h", res.TotalHours, base.TotalHours)
	}
	if res.Recovery.FaultsInjected != 2 {
		t.Fatalf("FaultsInjected = %d, want 2", res.Recovery.FaultsInjected)
	}
}
