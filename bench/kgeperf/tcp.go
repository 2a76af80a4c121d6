package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"

	"kgedist/internal/core"
	"kgedist/internal/kg"
	"kgedist/internal/transport/tcptransport"
)

// childEnv carries a rank process's whole configuration. The harness
// re-executes its own binary with this variable set; main (and the test
// binary's TestMain) check it before anything else.
const childEnv = "KGEPERF_RANK_CHILD"

// childTimeout bounds one multi-process job, so a wedged rank is killed
// instead of hanging the benchmark past the driver's limit.
const childTimeout = 120 * time.Second

// childConfig is the JSON in childEnv.
type childConfig struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Smoke     bool   `json:"smoke"`
	Rank      int    `json:"rank"`
	World     int    `json:"world"`
	Coord     string `json:"coord"`
	SpawnedNs int64  `json:"spawned_ns"` // parent's wall clock just before the spawn
	SetupOnly bool   `json:"setup_only"` // rendezvous, report and leave without training
}

// trainOverTCP runs one job as tcpRanks re-exec'd OS processes over loopback
// TCP (or, with setupOnly, just their spawn and rendezvous), each with
// GOMAXPROCS=1, and returns rank 0's stats. The
// coordinator's listener is bound here and inherited by rank 0, so there
// is no port race. Every process started is waited for on every path.
func trainOverTCP(env *runEnv, spec trainSpec, setupOnly bool) (*jobStats, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("binding coordinator: %w", err)
	}
	coord := ln.Addr().String()
	lnFile, err := ln.(*net.TCPListener).File()
	_ = ln.Close() // the duplicate in lnFile keeps the socket bound
	if err != nil {
		return nil, fmt.Errorf("duplicating coordinator socket: %w", err)
	}
	defer lnFile.Close() //kgelint:ignore droppederr the child owns its own copy

	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()

	spawned := time.Now().UnixNano()
	cmds := make([]*exec.Cmd, tcpRanks)
	outs := make([]bytes.Buffer, tcpRanks)
	started := 0
	var startErr error
	for r := 0; r < tcpRanks; r++ {
		cc := childConfig{Workload: spec.name, Seed: env.seed, Smoke: env.smoke, Rank: r, World: tcpRanks, Coord: coord, SpawnedNs: spawned, SetupOnly: setupOnly}
		raw, err := json.Marshal(cc)
		if err != nil {
			startErr = err
			break
		}
		cmd := exec.CommandContext(ctx, env.self)
		cmd.Env = append(os.Environ(), childEnv+"="+string(raw), "GOMAXPROCS=1")
		cmd.Stdout = &outs[r]
		cmd.Stderr = os.Stderr
		if r == 0 {
			cmd.ExtraFiles = []*os.File{lnFile}
		}
		if err := cmd.Start(); err != nil {
			startErr = fmt.Errorf("starting rank %d: %w", r, err)
			break
		}
		cmds[r] = cmd
		started++
	}
	if startErr != nil {
		cancel() // kills the ranks already started
	}
	errs := make([]error, started)
	var wg sync.WaitGroup
	for r := 0; r < started; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = cmds[r].Wait()
		}(r)
	}
	wg.Wait()
	if startErr != nil {
		return nil, startErr
	}
	stats := make([]*jobStats, tcpRanks)
	for r := range stats {
		if errs[r] != nil {
			return nil, fmt.Errorf("rank %d: %w (%s)", r, errs[r], lastLine(outs[r].String()))
		}
		var j jobStats
		if err := json.Unmarshal([]byte(lastLine(outs[r].String())), &j); err != nil {
			return nil, fmt.Errorf("rank %d result: %w", r, err)
		}
		stats[r] = &j
	}

	// Every rank evaluated the same merged model and charged the same
	// virtual costs, so their outputs must agree bit for bit (the training
	// loss is rank-local by design and is compared on rank 0 only).
	j := stats[0]
	for r, s := range stats[1:] {
		if math.Float64bits(s.MRR) != math.Float64bits(j.MRR) || math.Float64bits(s.TCA) != math.Float64bits(j.TCA) ||
			s.CommBytes != j.CommBytes || math.Float64bits(s.ModelS) != math.Float64bits(j.ModelS) || s.Epochs != j.Epochs {
			return nil, fmt.Errorf("rank %d disagrees with rank 0: %s vs %s", r+1, s.outputs(), j.outputs())
		}
		j.SetupS = math.Max(j.SetupS, s.SetupS)
		j.RSSMB = math.Max(j.RSSMB, s.RSSMB)
	}
	return j, nil
}

func lastLine(s string) string {
	s = strings.TrimRight(s, "\n")
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// runChild is one rank process: generate the dataset from the seed, join
// the mesh, train, and print this rank's jobStats as one JSON line.
func runChild(raw string) error {
	var cc childConfig
	if err := json.Unmarshal([]byte(raw), &cc); err != nil {
		return fmt.Errorf("decoding %s: %w", childEnv, err)
	}
	spec, ok := findTrainSpec(cc.Workload)
	if !ok || !spec.tcp {
		return fmt.Errorf("workload %q is not a multi-process workload", cc.Workload)
	}
	cfg := trainConfig(spec, cc.Seed, cc.Smoke, "")
	j := &jobStats{Rank: cc.Rank}

	t0 := time.Now()
	d := kg.Generate(trainDataset(cc.Seed, cc.Smoke))
	j.GenerateS = time.Since(t0).Seconds()

	opts := tcptransport.Options{
		Rank:            cc.Rank,
		WorldSize:       cc.World,
		CoordinatorAddr: cc.Coord,
		BuildTag:        "kgeperf",
		ConnectDeadline: childTimeout / 2,
	}
	if cc.Rank == 0 {
		// fd 3 is the coordinator socket the parent bound and passed down.
		ln, err := net.FileListener(os.NewFile(3, "coordinator"))
		if err != nil {
			return fmt.Errorf("adopting coordinator socket: %w", err)
		}
		opts.Listener = ln
	}
	t0 = time.Now()
	ep, err := tcptransport.Dial(opts)
	if err != nil {
		return fmt.Errorf("rank %d rendezvous: %w", cc.Rank, err)
	}
	j.DialS = time.Since(t0).Seconds()
	j.SetupS = float64(time.Now().UnixNano()-cc.SpawnedNs) / 1e9
	if cc.SetupOnly {
		if err := ep.Close(); err != nil {
			return fmt.Errorf("rank %d leaving: %w", cc.Rank, err)
		}
		return printJSON(j)
	}

	mem := startMemDelta()
	t0 = time.Now()
	res, err := core.TrainProcess(cfg, d, ep) // consumes ep
	j.WallS = time.Since(t0).Seconds()
	j.AllocMB, j.GCCycles = mem.stop()
	if err != nil {
		return fmt.Errorf("rank %d: %w", cc.Rank, err)
	}
	j.fill(res)
	j.RSSMB = peakRSSMB()
	return printJSON(j)
}

func printJSON(v any) error {
	buf, err := json.Marshal(v)
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	return nil
}
