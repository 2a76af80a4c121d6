package core_test

// Multi-process smoke tests: the test binary re-execs itself as N real OS
// processes that mesh over localhost TCP and run core.TrainProcess. Two
// properties are checked end to end:
//
//   - Trajectory identity: the coordinator process's epoch-level loss /
//     accuracy / virtual-time curves and final MRR are bit-identical to the
//     same seeded in-process core.Train run — the determinism contract of
//     the process world, measured through the whole trainer.
//   - Crash recovery: SIGKILL-ing a rank mid-training (no byes, no
//     teardown, exactly what the OOM killer does) makes the survivors
//     shrink, warm-start from the last checkpoint, finish, and land within
//     a quality band of the fault-free run.
//
// TestMain dispatches on KGE_PROC_WORKER: when set the process is a worker
// rank (dial, train, write a JSON outcome, exit) and never runs tests.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kgedist/internal/core"
	"kgedist/internal/testkit"
	"kgedist/internal/transport"
	"kgedist/internal/transport/tcptransport"
)

func TestMain(m *testing.M) {
	if os.Getenv("KGE_PROC_WORKER") == "1" {
		procWorkerMain()
		panic("unreachable: worker must exit")
	}
	os.Exit(m.Run())
}

// procOutcome is the slice of core.Result a worker reports back to the
// parent test through its JSON out-file.
type procOutcome struct {
	Rank            int
	Epochs          int
	MRR             float64
	TCA             float64
	Recoveries      int
	RankFailures    int
	FinalNodes      int
	Checkpoints     int
	SwitchedAtEpoch int
	Steps           []core.CompressionStep
	Loss            []float64
	ValAcc          []float64
	Seconds         []float64
	CommBytes       []int64
}

// procScenarioConfig is the single source of truth for worker and reference
// configs, so both sides of every comparison train the same job.
func procScenarioConfig(scenario, ckpt string) core.Config {
	cfg := testkit.GoldenBaseConfig()
	cfg.Comm = core.CommDynamic
	cfg.ProbeEvery = 2
	cfg.RelationPartition = true
	switch scenario {
	case "traj":
		cfg.MaxEpochs = 6
	case "kill", "kill-dyncomp", "kill-rank0":
		if scenario == "kill-dyncomp" {
			// The ladder's first step lands before the first checkpoint, so
			// the crash rolls back past a recorded step.
			cfg.Comm = core.CommDynamicCompress
			cfg.CompressHold = 1
			cfg.CompressWarmup = 1
		}
		cfg.MaxEpochs = 40
		cfg.StopPatience = 40
		cfg.CheckpointEvery = 2
		cfg.CheckpointPath = ckpt
		cfg.Recover = true
	default:
		panic("unknown scenario " + scenario)
	}
	return cfg
}

// procWorkerMain is the re-exec entry point for one worker rank.
func procWorkerMain() {
	rank, _ := strconv.Atoi(os.Getenv("KGE_PROC_RANK"))
	world, _ := strconv.Atoi(os.Getenv("KGE_PROC_WORLD"))
	coord := os.Getenv("KGE_PROC_COORD")
	scenario := os.Getenv("KGE_PROC_SCENARIO")
	ckpt := os.Getenv("KGE_PROC_CKPT")
	out := os.Getenv("KGE_PROC_OUT")
	die := func(err error) {
		fmt.Fprintf(os.Stderr, "worker rank %d: %v\n", rank, err)
		os.Exit(1)
	}

	// The victim rank crashes hard the moment the coordinator's first
	// checkpoint hits disk: SIGKILL, so no byes and no connection teardown
	// reach the survivors — only EOFs and heartbeat silence.
	if strings.HasPrefix(scenario, "kill") && rank == victimRank(scenario, world) {
		go func() {
			for {
				if _, err := os.Stat(ckpt); err == nil {
					p, _ := os.FindProcess(os.Getpid())
					_ = p.Kill()
				}
				time.Sleep(200 * time.Microsecond)
			}
		}()
	}

	ep, err := tcptransport.Dial(tcptransport.Options{
		Rank:            rank,
		WorldSize:       world,
		CoordinatorAddr: coord,
		BuildTag:        "proc-smoke",
		ConnectDeadline: 60 * time.Second,
	})
	if err != nil {
		die(fmt.Errorf("dial: %w", err))
	}
	res, err := core.TrainProcess(procScenarioConfig(scenario, ckpt), testkit.GoldenDataset(), ep)
	if err != nil {
		die(fmt.Errorf("train: %w", err))
	}
	o := procOutcome{
		Rank:            rank,
		Epochs:          res.Epochs,
		MRR:             res.MRR,
		TCA:             res.TCA,
		Recoveries:      res.Recovery.Recoveries,
		RankFailures:    res.Recovery.RankFailures,
		FinalNodes:      res.Recovery.FinalNodes,
		Checkpoints:     res.Recovery.Checkpoints,
		SwitchedAtEpoch: res.SwitchedAtEpoch,
		Steps:           res.CompressionSteps,
	}
	for _, e := range res.PerEpoch {
		o.Loss = append(o.Loss, e.TrainLoss)
		o.ValAcc = append(o.ValAcc, e.ValAccuracy)
		o.Seconds = append(o.Seconds, e.Seconds)
		o.CommBytes = append(o.CommBytes, e.CommBytes)
	}
	b, err := json.Marshal(o)
	if err != nil {
		die(err)
	}
	tmp := out + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		die(err)
	}
	if err := os.Rename(tmp, out); err != nil {
		die(err)
	}
	os.Exit(0)
}

// reserveAddr picks a free localhost port and releases it for the
// coordinator worker to re-bind (Dial's listen host retries the bind, which
// absorbs the close-to-rebind window).
func reserveAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserve port: %v", err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

// launchWorkers re-execs this test binary as p worker ranks and returns the
// commands plus the per-rank outcome paths.
func launchWorkers(t *testing.T, p int, scenario, ckpt, coord, dir string) ([]*exec.Cmd, []string) {
	t.Helper()
	cmds := make([]*exec.Cmd, p)
	outs := make([]string, p)
	for i := 0; i < p; i++ {
		outs[i] = filepath.Join(dir, fmt.Sprintf("rank%d.json", i))
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		var log strings.Builder
		cmd.Stdout, cmd.Stderr = &log, &log
		cmd.Env = append(os.Environ(),
			"KGE_PROC_WORKER=1",
			"KGE_PROC_RANK="+strconv.Itoa(i),
			"KGE_PROC_WORLD="+strconv.Itoa(p),
			"KGE_PROC_COORD="+coord,
			"KGE_PROC_SCENARIO="+scenario,
			"KGE_PROC_CKPT="+ckpt,
			"KGE_PROC_OUT="+outs[i],
		)
		if err := cmd.Start(); err != nil {
			t.Fatalf("start worker %d: %v", i, err)
		}
		rank := i
		t.Cleanup(func() {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
			if t.Failed() && log.Len() > 0 {
				t.Logf("worker %d output:\n%s", rank, log.String())
			}
		})
		cmds[i] = cmd
	}
	return cmds, outs
}

// waitWorker waits for one worker with a deadline; a hung worker fails the
// test instead of hanging it.
func waitWorker(t *testing.T, rank int, cmd *exec.Cmd, timeout time.Duration) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(timeout):
		_ = cmd.Process.Kill()
		t.Fatalf("worker rank %d still running after %v — hung shutdown", rank, timeout)
		return nil
	}
}

func readOutcome(t *testing.T, path string) procOutcome {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read worker outcome: %v", err)
	}
	var o procOutcome
	if err := json.Unmarshal(b, &o); err != nil {
		t.Fatalf("decode worker outcome %s: %v", path, err)
	}
	return o
}

// TestProcessTrajectoryMatchesInProcess launches 3 real OS processes over
// localhost TCP and requires the coordinator's epoch-level trajectory —
// loss, validation accuracy, virtual seconds, comm bytes, the dynamic
// strategy's switch epoch — and the final MRR/TCA to be bit-identical to
// the same seeded in-process run.
func TestProcessTrajectoryMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke test skipped in -short mode")
	}
	const p = 3
	dir := t.TempDir()
	cfg := procScenarioConfig("traj", "")
	ref, err := core.Train(cfg, testkit.GoldenDataset(), p)
	if err != nil {
		t.Fatalf("in-process reference run: %v", err)
	}

	cmds, outs := launchWorkers(t, p, "traj", "", reserveAddr(t), dir)
	for i, cmd := range cmds {
		if err := waitWorker(t, i, cmd, 120*time.Second); err != nil {
			t.Fatalf("worker rank %d exited with %v", i, err)
		}
	}

	got := readOutcome(t, outs[0])
	if got.Epochs != ref.Epochs {
		t.Fatalf("epochs: %d over TCP, %d in-process", got.Epochs, ref.Epochs)
	}
	if got.SwitchedAtEpoch != ref.SwitchedAtEpoch {
		t.Fatalf("dynamic switch epoch: %d over TCP, %d in-process", got.SwitchedAtEpoch, ref.SwitchedAtEpoch)
	}
	if len(got.Loss) != len(ref.PerEpoch) {
		t.Fatalf("per-epoch records: %d over TCP, %d in-process", len(got.Loss), len(ref.PerEpoch))
	}
	for i, e := range ref.PerEpoch {
		if got.Loss[i] != e.TrainLoss || got.ValAcc[i] != e.ValAccuracy {
			t.Errorf("epoch %d: loss/valacc (%v, %v) over TCP, (%v, %v) in-process",
				e.Epoch, got.Loss[i], got.ValAcc[i], e.TrainLoss, e.ValAccuracy)
		}
		if got.Seconds[i] != e.Seconds || got.CommBytes[i] != e.CommBytes {
			t.Errorf("epoch %d: virtual time/bytes (%v, %d) over TCP, (%v, %d) in-process",
				e.Epoch, got.Seconds[i], got.CommBytes[i], e.Seconds, e.CommBytes)
		}
	}
	if got.MRR != ref.MRR || got.TCA != ref.TCA {
		t.Fatalf("final quality: MRR %v TCA %v over TCP, MRR %v TCA %v in-process",
			got.MRR, got.TCA, ref.MRR, ref.TCA)
	}
	// Every process evaluates the same merged model: all outcomes agree.
	for i := 1; i < p; i++ {
		o := readOutcome(t, outs[i])
		if o.MRR != got.MRR || o.Epochs != got.Epochs {
			t.Fatalf("rank %d disagrees with rank 0: MRR %v vs %v, epochs %d vs %d",
				i, o.MRR, got.MRR, o.Epochs, got.Epochs)
		}
	}
}

// victimRank is the rank a kill scenario SIGKILLs: the highest, or rank 0 —
// the coordinator, which leads the first generation and writes the
// checkpoint — in kill-rank0.
func victimRank(scenario string, world int) int {
	if scenario == "kill-rank0" {
		return 0
	}
	return world - 1
}

// TestProcessSIGKILLRecovery trains 3 processes with checkpointing; the
// victim rank SIGKILLs itself as soon as the first checkpoint lands on
// disk. The survivors must observe the crash as a rank failure, agree that
// the victim is the only rank that died, shrink to a 2-process world,
// warm-start from the checkpoint, finish cleanly, and land within a quality
// band of the fault-free run. Under the adaptive ladder the recovered step
// record must be the new attempt's alone. The victim is the highest rank,
// or in kill-rank0 rank 0, after which the lowest survivor leads the
// re-mesh.
func TestProcessSIGKILLRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process crash test skipped in -short mode")
	}
	for _, scenario := range []string{"kill", "kill-dyncomp", "kill-rank0"} {
		t.Run(scenario, func(t *testing.T) { sigkillRecovery(t, scenario) })
	}
}

func sigkillRecovery(t *testing.T, scenario string) {
	const p = 3
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "checkpoint.bin")
	refCfg := procScenarioConfig(scenario, "")
	ref, err := core.Train(refCfg, testkit.GoldenDataset(), p)
	if err != nil {
		t.Fatalf("fault-free reference run: %v", err)
	}
	t.Logf("fault-free reference: MRR %v, TCA %v, epochs %d", ref.MRR, ref.TCA, ref.Epochs)

	cmds, outs := launchWorkers(t, p, scenario, ckpt, reserveAddr(t), dir)

	// The victim must die by signal, not exit cleanly.
	victim := victimRank(scenario, p)
	verr := waitWorker(t, victim, cmds[victim], 120*time.Second)
	var xerr *exec.ExitError
	if verr == nil || !errors.As(verr, &xerr) {
		t.Fatalf("victim rank %d exited with %v, want a SIGKILL death", victim, verr)
	}
	var survivors []procOutcome
	for i := 0; i < p; i++ {
		if i == victim {
			continue
		}
		if err := waitWorker(t, i, cmds[i], 180*time.Second); err != nil {
			t.Fatalf("survivor rank %d exited with %v", i, err)
		}
		survivors = append(survivors, readOutcome(t, outs[i]))
	}

	o0, o1 := survivors[0], survivors[1]
	for _, o := range survivors {
		// One crash is one dead rank on every survivor: a second conviction
		// would be the survivors disagreeing on who died.
		if o.Recoveries != 1 || o.RankFailures != 1 {
			t.Fatalf("rank %d recorded %d recoveries over %d dead ranks, want 1 over 1", o.Rank, o.Recoveries, o.RankFailures)
		}
		if o.FinalNodes != p-1 {
			t.Fatalf("rank %d finished with %d nodes, want %d", o.Rank, o.FinalNodes, p-1)
		}
		if o.Checkpoints < 1 {
			t.Fatalf("rank %d recorded no checkpoints before the crash", o.Rank)
		}
		// The ladder restarts with the attempt, so its record must not keep
		// the dead attempt's steps: epochs strictly ascending, no rung twice.
		rungs := map[string]bool{}
		for i, st := range o.Steps {
			if i > 0 && st.Epoch <= o.Steps[i-1].Epoch || rungs[st.Level] {
				t.Fatalf("rank %d ladder record %+v keeps steps of the attempt that died", o.Rank, o.Steps)
			}
			rungs[st.Level] = true
		}
	}
	if scenario == "kill-dyncomp" && len(o0.Steps) == 0 {
		t.Fatal("ladder never re-engaged after recovery")
	}
	if o0.MRR != o1.MRR || o0.Epochs != o1.Epochs {
		t.Fatalf("survivors diverged: MRR %v vs %v, epochs %d vs %d", o0.MRR, o1.MRR, o0.Epochs, o1.Epochs)
	}
	if band := math.Abs(o0.MRR - ref.MRR); band > 0.2 {
		t.Fatalf("recovered MRR %v is %.3f away from fault-free %v (band 0.2)", o0.MRR, band, ref.MRR)
	}
	if o0.MRR < ref.MRR/2 {
		t.Fatalf("recovered MRR %v below half the fault-free %v — recovery produced a broken model", o0.MRR, ref.MRR)
	}
}

// trainOverTCP runs cfg as a p-rank process-world job inside this test
// binary: one TCP endpoint per rank over localhost, each handed through
// wrap (when not nil) to core.TrainProcess on its own goroutine.
func trainOverTCP(t *testing.T, p int, cfg core.Config, wrap func(rank int, ep *tcptransport.Endpoint) transport.Endpoint) ([]*core.Result, []error) {
	t.Helper()
	lns := make([]net.Listener, p)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
	}
	results := make([]*core.Result, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			ep, err := tcptransport.Dial(tcptransport.Options{
				Rank:            rank,
				WorldSize:       p,
				CoordinatorAddr: lns[0].Addr().String(),
				Listener:        lns[rank],
				ConnectDeadline: 30 * time.Second,
			})
			if err != nil {
				errs[rank] = fmt.Errorf("dial rank %d: %w", rank, err)
				return
			}
			var tep transport.Endpoint = ep
			if wrap != nil {
				tep = wrap(rank, ep)
			}
			results[rank], errs[rank] = core.TrainProcess(cfg, testkit.GoldenDataset(), tep)
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("process-world job still running after 120s")
	}
	return results, errs
}

// splitEndpoint is one rank's endpoint in TestProcessDeathInsideCheckpointBarrier.
// Rank 0's records the collective sequence number of its first send after
// the checkpoint file appears (the verdict that follows the checkpoint).
// Rank 2's reports when it receives the target collective's broadcast.
// Rank 1's, the victim, holds its target broadcast to rank 3 until ranks 0
// and 2 have left that collective and rank 0 has committed the snapshot,
// then severs all its links and fails from then on, as a process killed
// there would.
type splitEndpoint struct {
	*tcptransport.Endpoint
	ckpt     string
	target   uint64        // seq of the collective the victim dies in
	verdict  *atomic.Int64 // rank 0: first seq sent after the checkpoint file exists
	released chan struct{} // closed by rank 2 once it received target from rank 0
	once     *sync.Once
	killed   atomic.Bool
}

var errKilled = errors.New("rank killed")

func (e *splitEndpoint) Send(dst int, m transport.Message) error {
	if e.killed.Load() {
		return errKilled
	}
	switch e.Rank() {
	case 0:
		if e.verdict != nil && e.verdict.Load() < 0 {
			if _, err := os.Stat(e.ckpt); err == nil {
				e.verdict.Store(int64(m.Seq))
			}
		}
	case 1:
		if e.released != nil && dst == 3 && m.Seq == e.target {
			<-e.released
			for {
				if _, err := os.Stat(e.ckpt); err == nil {
					break
				}
				time.Sleep(time.Millisecond)
			}
			e.killed.Store(true)
			for _, peer := range []int{0, 2, 3} {
				e.Inject(tcptransport.FaultSever, peer)
			}
			return errKilled
		}
	}
	return e.Endpoint.Send(dst, m)
}

func (e *splitEndpoint) Recv(src int, timeout time.Duration) (transport.Message, error) {
	if e.killed.Load() {
		return transport.Message{}, errKilled
	}
	m, err := e.Endpoint.Recv(src, timeout)
	if err == nil && e.released != nil && e.Rank() == 2 && src == 0 && m.Seq == e.target {
		e.once.Do(func() { close(e.released) })
	}
	return m, err
}

// A killed rank reports no verdict of its own, so its job ends with
// errKilled instead of shrinking to a world of one.
func (e *splitEndpoint) Err() error {
	if e.killed.Load() {
		return nil
	}
	return e.Endpoint.Err()
}

// TestProcessDeathInsideCheckpointBarrier: at P = 4 the Barrier that closes
// an epoch is a binomial reduce and broadcast (0→1, 0→2, then 1→3). Rank 1
// dies after rank 0's broadcast reached it but before it forwards it to
// rank 3, so ranks 0 and 2 leave the Barrier and commit the epoch-2
// snapshot while rank 3 fails inside it and keeps the initial one. The
// survivors must still replay from one snapshot: every survivor finishes
// with the same epochs, validation curve and bit-equal parameters.
func TestProcessDeathInsideCheckpointBarrier(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process crash test skipped in -short mode")
	}
	const p = 4
	dir := t.TempDir()
	config := func(ckpt string) core.Config {
		cfg := testkit.GoldenBaseConfig()
		cfg.MaxEpochs = 6
		cfg.StopPatience = 6
		cfg.CheckpointEvery = 2
		cfg.CheckpointPath = ckpt
		cfg.Recover = true
		return cfg
	}

	// A fault-free run finds the checkpoint's verdict collective; the
	// collective before it is the epoch-end Barrier (a replicated job's
	// merge sends nothing).
	calib := filepath.Join(dir, "calibration.bin")
	var verdict atomic.Int64
	verdict.Store(-1)
	_, errs := trainOverTCP(t, p, config(calib), func(rank int, ep *tcptransport.Endpoint) transport.Endpoint {
		return &splitEndpoint{Endpoint: ep, ckpt: calib, verdict: &verdict}
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("fault-free run, rank %d: %v", r, err)
		}
	}
	if verdict.Load() < 1 {
		t.Fatalf("rank 0 sent nothing after the checkpoint landed (seq %d)", verdict.Load())
	}
	target := uint64(verdict.Load() - 1)

	ckpt := filepath.Join(dir, "checkpoint.bin")
	released := make(chan struct{})
	var once sync.Once
	results, errs := trainOverTCP(t, p, config(ckpt), func(rank int, ep *tcptransport.Endpoint) transport.Endpoint {
		return &splitEndpoint{Endpoint: ep, ckpt: ckpt, target: target, released: released, once: &once}
	})
	if !errors.Is(errs[1], errKilled) {
		t.Fatalf("victim rank 1 ended with %v, want %v", errs[1], errKilled)
	}
	ref := results[0]
	for _, r := range []int{0, 2, 3} {
		if errs[r] != nil {
			t.Fatalf("survivor rank %d: %v", r, errs[r])
		}
		res := results[r]
		if res.Recovery.Recoveries != 1 || res.Recovery.RankFailures != 1 || res.Recovery.FinalNodes != p-1 {
			t.Fatalf("survivor rank %d recovery %+v, want one recovery from one dead rank to %d nodes", r, res.Recovery, p-1)
		}
		if res.Epochs != ref.Epochs || len(res.PerEpoch) != len(ref.PerEpoch) {
			t.Fatalf("survivor rank %d ran %d epochs (%d records), rank 0 %d (%d records)",
				r, res.Epochs, len(res.PerEpoch), ref.Epochs, len(ref.PerEpoch))
		}
		// Train loss is each process's own shard's; the rest is global.
		for i, e := range res.PerEpoch {
			if w := ref.PerEpoch[i]; e.Epoch != w.Epoch || e.ValAccuracy != w.ValAccuracy {
				t.Fatalf("survivor rank %d record %d: epoch %d valacc %v, rank 0 epoch %d valacc %v",
					r, i, e.Epoch, e.ValAccuracy, w.Epoch, w.ValAccuracy)
			}
		}
		for _, pair := range [][2][]float32{
			{res.FinalParams.Entity.Data, ref.FinalParams.Entity.Data},
			{res.FinalParams.Relation.Data, ref.FinalParams.Relation.Data},
		} {
			for k := range pair[0] {
				if math.Float32bits(pair[0][k]) != math.Float32bits(pair[1][k]) {
					t.Fatalf("survivor rank %d final params differ from rank 0's at element %d", r, k)
				}
			}
		}
	}
}
