package core

import (
	"kgedist/internal/kg"
	"kgedist/internal/mpi"
	"kgedist/internal/simnet"
	"kgedist/internal/transport"
)

// TrainProcess is Train for a job where every rank is a real OS process
// reaching its peers through a transport endpoint (in practice tcptransport
// over a cluster of kgetrain invocations): it runs this process's rank of the
// job and consumes the endpoint.
//
// The determinism contract carries over from the channel world: every
// process derives the partition, the initialization and all randomness from
// (Config, dataset, world size) alone and charges identical virtual costs to
// its own private simnet cluster, so epoch-level loss/accuracy trajectories —
// and every process's recorded curves — are identical to the same seeded
// in-process run. What differs is what one address space can observe; train
// documents those cases.
func TrainProcess(cfg Config, d *kg.Dataset, ep transport.Endpoint) (*Result, error) {
	world, err := mpi.NewProcessWorld(simnet.NewCluster(ep.Size(), simnet.XC40Params()), ep)
	if err != nil {
		return nil, err
	}
	res, _, err := train(cfg, d, world)
	return res, err
}
