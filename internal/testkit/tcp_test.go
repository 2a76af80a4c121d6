package testkit

import (
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kgedist/internal/core"
	"kgedist/internal/grad"
	"kgedist/internal/kg"
)

// TestVerifyTCPTrajectoryIdentical is the in-suite form of the
// `kgeverify -tcp` gate: every TCP scenario (dynamic strategy, partitioned
// sharded tables) trained over three real TCP endpoints on localhost must
// match the in-process simulated run at zero tolerance. It trains each
// scenario twice (both fabrics), so the -short race tier skips it;
// `make transport` and plain `go test` run it.
func TestVerifyTCPTrajectoryIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two full runs per scenario; covered by the transport tier")
	}
	var lines []string
	drifts := VerifyTCP(func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	})
	for _, d := range drifts {
		t.Errorf("tcp drift: %s", d)
	}
	want := len(TCPScenarios())
	if len(lines) != want {
		t.Errorf("progress report = %q, want %d lines", lines, want)
	}
	for _, line := range lines {
		if !strings.Contains(line, "identical") {
			t.Errorf("progress line %q does not report %q", line, "identical")
		}
	}
	if sc := TCPScenario(); sc.Name != "tcp-drs" || sc.Nodes != 3 {
		t.Errorf("TCPScenario = %q/%d nodes, want tcp-drs/3", sc.Name, sc.Nodes)
	}
}

// TestCheckpointBytesPinned pins, per table layout, fabric and per-triple
// configuration, the checkpoint file written at GoldenBaseConfig/GoldenDataset
// with CheckpointEvery=2 (the last write, epoch 8) and the run's virtual
// ledger (CommBytes, TotalHours bits). The constants were recorded before the
// three checkpoint paths became one protocol over one merge and before the
// replicated and sharded per-triple bodies became one (the ss-rp,
// ss2/partitioned and allgather-1bit-ef-rs-adagrad rows before the
// training options nothing published were deleted), so a merge that loses
// a row, a sampler stream consumed in another order, or a compute charge
// rounded differently fails here at zero tolerance. The partitioned rows'
// ledger columns were re-pinned when the row exchange became
// owner-addressed and partitioned RS began billing its norm pass, and the
// quantized rows' (allgather-1bit-ef-rs-adagrad, combined, dyncomp) when
// encoded frames began sending delta-varint ids and no NoQuant scales; their
// body CRCs were not, because the trained parameters did not move. The dyncomp
// row's CRC and ledger were re-pinned when the compressed reduce-scatter
// became an owner merge, which changes its trajectory after the first lossy
// rung; its ledger alone was re-pinned again when the reduced chunks' return
// stopped echoing each rank's only-source rows back to it. The CRC
// covers the body only: a file that carries its own CRC-32 footer hashes to
// the same residue whatever it contains.
func TestCheckpointBytesPinned(t *testing.T) {
	d := GoldenDataset()
	ss := func(c *core.Config) { c.NegSamples, c.NegSelect = 4, true }
	margin := func(c *core.Config) { c.ModelName, c.LossName, c.NegSamples = "transe", "margin", 3 }
	for _, tc := range []struct {
		name      string
		run       func(Scenario, *kg.Dataset) (*core.Result, error)
		mutate    func(*core.Config)
		crc       uint32
		commBytes int64
		hoursBits uint64
	}{
		{"replicated-rp/chan", RunScenario, func(c *core.Config) { c.RelationPartition = true },
			0xf9f8308f, 2542720, 0x3ec50bbe91fc2fa4},
		{"partitioned/chan", RunScenario, func(c *core.Config) { c.Partitioned = true },
			0x9185334c, 3101988, 0x3ed76093ce394a71},
		{"replicated-rp/tcp", RunScenarioTCP, func(c *core.Config) { c.RelationPartition = true },
			0xf9f8308f, 2563120, 0x3ec588866feef8ab},
		{"ss", RunScenario, ss, 0x957a6fa1, 2112640, 0x3ec85942df667abb},
		{"ss/partitioned", RunScenario, func(c *core.Config) { ss(c); c.Partitioned = true },
			0xa3ab2ab6, 3174952, 0x3ed8d646b428f089},
		{"transe-margin", RunScenario, margin, 0x54709f89, 1056640, 0x3ec2e323fbc815b8},
		{"transe-margin/partitioned", RunScenario, func(c *core.Config) { margin(c); c.Partitioned = true },
			0xf0408b40, 1618872, 0x3ed5377cca6f76d2},
		{"ss-rp", RunScenario, func(c *core.Config) {
			c.NegSamples, c.NegSelect, c.RelationPartition = 3, true, true
		}, 0xf5e32744, 2542720, 0x3ec731689a345e38},
		{"ss2/partitioned", RunScenario, func(c *core.Config) { c.NegSamples, c.Partitioned = 2, true },
			0xb920f36e, 3232684, 0x3ed8ae89f609b36e},
		{"allgather-1bit-ef-rs-adagrad", RunScenario, func(c *core.Config) {
			c.Comm, c.Quant, c.ErrorFeedback = core.CommAllGather, grad.OneBitMax, true
			c.Select, c.OptimizerName = grad.SelectBernoulli, "adagrad"
		}, 0xc5e054fd, 356162, 0x3ec078c87c0f4272},
		{"distmult-sgd-hash-rs/partitioned", RunScenario, func(c *core.Config) {
			c.ModelName, c.OptimizerName, c.Partitioned, c.PartitionBy = "distmult", "sgd", true, "hash"
			c.Select, c.NegSamples = grad.SelectBernoulli, 2
		}, 0x55eb2d19, 1573080, 0x3ed5362c08e7b0b1},
		{"combined", RunScenario, func(c *core.Config) {
			ss(c)
			c.Comm, c.ProbeEvery, c.Select = core.CommDynamic, 2, grad.SelectBernoulli
			c.Quant, c.RelationPartition = grad.OneBitMax, true
		}, 0x4acbf5fd, 722366, 0x3ec4310348909e72},
		{"dyncomp", RunScenario, func(c *core.Config) { c.Comm = core.CommDynamicCompress },
			0x132d3f80, 1238097, 0x3ed00a956c89088b},
	} {
		path := filepath.Join(t.TempDir(), "ckpt.bin")
		sc := Scenario{Name: tc.name, Nodes: 3, Mutate: func(c *core.Config) {
			tc.mutate(c)
			c.CheckpointEvery = 2
			c.CheckpointPath = path
		}}
		res, err := tc.run(sc, d)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := crc32.ChecksumIEEE(b[:len(b)-4]); got != tc.crc {
			t.Errorf("%s: checkpoint body CRC %#08x, want %#08x", tc.name, got, tc.crc)
		}
		if got := math.Float64bits(res.TotalHours); res.CommBytes != tc.commBytes || got != tc.hoursBits {
			t.Errorf("%s: ledger CommBytes %d / TotalHours bits %#016x, want %d / %#016x",
				tc.name, res.CommBytes, got, tc.commBytes, tc.hoursBits)
		}
	}
}

// TestTrackEpochStatsAcrossLayoutsAndFabrics: the per-epoch merged-model
// ValTCA is served by the collective merge, so it needs neither full replicas
// nor one address space. Sharded tables and RP's rank-private relation rows
// record it every epoch, identically over the channel world and over TCP,
// and evaluating it leaves the trained model alone.
func TestTrackEpochStatsAcrossLayoutsAndFabrics(t *testing.T) {
	if testing.Short() {
		t.Skip("trains three full runs per layout")
	}
	d := GoldenDataset()
	for _, tc := range []struct {
		name   string
		layout func(*core.Config)
	}{
		{"partitioned", func(c *core.Config) { c.Partitioned = true }},
		{"relation-partition", func(c *core.Config) { c.RelationPartition = true }},
	} {
		plain, err := RunScenario(Scenario{Name: tc.name, Nodes: 3, Mutate: tc.layout}, d)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		tracked := Scenario{Name: tc.name, Nodes: 3, Mutate: func(c *core.Config) {
			tc.layout(c)
			c.TrackEpochStats = true
		}}
		ch, err := RunScenario(tracked, d)
		if err != nil {
			t.Fatalf("%s/chan: %v", tc.name, err)
		}
		tcp, err := RunScenarioTCP(tracked, d)
		if err != nil {
			t.Fatalf("%s/tcp: %v", tc.name, err)
		}
		if len(ch.PerEpoch) == 0 || len(ch.PerEpoch) != len(tcp.PerEpoch) {
			t.Fatalf("%s: %d epochs over channels, %d over TCP", tc.name, len(ch.PerEpoch), len(tcp.PerEpoch))
		}
		for i, e := range ch.PerEpoch {
			if got := tcp.PerEpoch[i].ValTCA; e.ValTCA <= 0 || got != e.ValTCA {
				t.Errorf("%s: epoch %d ValTCA %v over channels, %v over TCP", tc.name, e.Epoch, e.ValTCA, got)
			}
		}
		if ch.MRR != plain.MRR || tcp.MRR != plain.MRR {
			t.Errorf("%s: MRR %v untracked, %v tracked over channels, %v over TCP", tc.name, plain.MRR, ch.MRR, tcp.MRR)
		}
	}
}
