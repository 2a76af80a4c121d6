package testkit

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kgedist/internal/core"
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

// TestCheckpointBytesPinned pins the checkpoint file every table layout and
// fabric writes at GoldenBaseConfig/GoldenDataset with CheckpointEvery=2 (the
// last write, epoch 8). The constants were recorded before the three
// checkpoint paths became one protocol over one merge, so a merge that loses
// or misplaces a row fails here at zero tolerance. The CRC covers the body
// only: a file that carries its own CRC-32 footer hashes to the same residue
// whatever it contains.
func TestCheckpointBytesPinned(t *testing.T) {
	d := GoldenDataset()
	for _, tc := range []struct {
		name   string
		run    func(Scenario, *kg.Dataset) (*core.Result, error)
		mutate func(*core.Config)
		want   uint32
	}{
		{"replicated-rp/chan", RunScenario, func(c *core.Config) { c.RelationPartition = true }, 0xf9f8308f},
		{"partitioned/chan", RunScenario, func(c *core.Config) { c.Partitioned = true }, 0x9185334c},
		{"replicated-rp/tcp", RunScenarioTCP, func(c *core.Config) { c.RelationPartition = true }, 0xf9f8308f},
	} {
		path := filepath.Join(t.TempDir(), "ckpt.bin")
		sc := Scenario{Name: tc.name, Nodes: 3, Mutate: func(c *core.Config) {
			tc.mutate(c)
			c.CheckpointEvery = 2
			c.CheckpointPath = path
		}}
		if _, err := tc.run(sc, d); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := crc32.ChecksumIEEE(b[:len(b)-4]); got != tc.want {
			t.Errorf("%s: checkpoint body CRC %#08x, want %#08x", tc.name, got, tc.want)
		}
	}
}
