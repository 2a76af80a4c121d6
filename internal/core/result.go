package core

import "kgedist/internal/model"

// EpochStats records one epoch's observables — the raw series behind the
// paper's figures.
type EpochStats struct {
	// Epoch is 1-based.
	Epoch int
	// Seconds is the epoch's virtual duration (compute + communication).
	Seconds float64
	// CommSeconds is the virtual time inside collectives this epoch.
	CommSeconds float64
	// CommBytes is the payload volume moved this epoch.
	CommBytes int64
	// ValAccuracy is the validation pairwise-ranking accuracy in percent
	// (the convergence metric driving the LR schedule and early stop).
	ValAccuracy float64
	// TrainLoss is rank 0's mean per-example training loss this epoch
	// (logistic or hinge, per the configured objective). It is a rank-local
	// observable — no collective is spent on it — but with a fixed seed it
	// is fully deterministic, which is what the golden-run convergence
	// regression harness (internal/testkit) pins.
	TrainLoss float64
	// ValTCA is the validation triple-classification accuracy in percent
	// (recorded when TrackEpochStats; used by the TCA-vs-epoch figures).
	ValTCA float64
	// NonZeroGradRows is the average per-batch count of non-zero gradient
	// rows before selection: entity rows in the replicated modes (Figure 2's
	// quantity), entity plus relation rows in partitioned mode.
	NonZeroGradRows float64
	// Sparsity is the fraction of gradient rows dropped by selection.
	Sparsity float64
	// RemoteRowFraction is the fraction of unique embedding rows touched by
	// this rank's batches that lived on another rank and had to be pulled
	// (partitioned mode only; the realized counterpart of the partition
	// plan's predicted remote-row fraction). Rank-local but deterministic,
	// so the golden harness pins it.
	RemoteRowFraction float64
	// Mode is the exchange used this epoch ("allreduce", "allgather",
	// "dyncomp" under the adaptive controller, or "rowexchange" in
	// partitioned mode).
	Mode string
	// Level is the compression-ladder rung this epoch's exchanges ran at
	// ("fp32", "2bit", "1bit", "1bit+rs"; empty outside the adaptive
	// controller — DESIGN.md §13). Globally agreed, so the golden harness
	// pins it at zero tolerance.
	Level string `json:",omitempty"`
	// GradEntropy is the epoch's globally summed normalized bucket entropy
	// of the entity gradient — the controller's decision signal (DESIGN.md
	// §13; zero outside the adaptive controller).
	GradEntropy float64 `json:",omitempty"`
	// LR is the learning rate in effect.
	LR float64
}

// CompressionStep records one ladder ascent of the adaptive compression
// controller (DESIGN.md §13).
type CompressionStep struct {
	// Epoch is the first epoch trained at the new rung.
	Epoch int
	// Level is the rung stepped to ("2bit", "1bit", "1bit+rs").
	Level string
}

// RecoveryStats summarizes the fault-tolerance activity of a run: injected
// faults, rank failures observed, shrink-and-continue recoveries, epochs
// replayed, and the virtual time charged to checkpointing and recovery. All
// values are deterministic functions of (Config, dataset, nodes): a given
// seed and fault plan always yields the same stats.
type RecoveryStats struct {
	// FaultsInjected counts fault-plan entries that actually fired.
	FaultsInjected int
	// RankFailures counts dead ranks observed across all failures.
	RankFailures int
	// Recoveries counts shrink-and-continue restarts.
	Recoveries int
	// EpochsLost counts completed epochs discarded by rollbacks to the last
	// snapshot (work that had to be replayed).
	EpochsLost int
	// RecoverySeconds is the virtual time charged to failure detection,
	// backoff and checkpoint reload.
	RecoverySeconds float64
	// Checkpoints counts periodic snapshots taken.
	Checkpoints int
	// FinalNodes is the world size that finished the run (smaller than
	// Nodes after shrink-and-continue).
	FinalNodes int
	// Degraded reports that the run fell back to a single fault-free node
	// after exhausting its recovery budget or shrinking to one survivor.
	Degraded bool
}

// PartitionStats reports the quality of the row partition a partitioned run
// trained under (the plan of the final attempt, after any shrink): how well
// the min-cut kept triples rank-local and how evenly the tables spread.
type PartitionStats struct {
	// Algo is the partitioner used ("mincut" or "hash").
	Algo string
	// Ranks is the world size the plan was built for.
	Ranks int
	// CutRatio is the fraction of training triples not fully local to their
	// shard's rank.
	CutRatio float64
	// RemoteRowFraction is the predicted fraction of row references that
	// cross ranks when every triple trains on its assigned shard.
	RemoteRowFraction float64
	// EntityBalance, RelationBalance and TripleBalance are max-shard /
	// ideal-shard ratios (1.0 = perfectly even).
	EntityBalance   float64
	RelationBalance float64
	TripleBalance   float64
	// MaxEntityShard is the largest per-rank entity-row count — the peak
	// memory claim, strictly below the full table for P >= 2.
	MaxEntityShard int
}

// Result summarizes a training run; fields mirror the paper's table columns.
type Result struct {
	// Strategy is the paper-style label, e.g. "DRS+1-bit+RP+SS".
	Strategy string
	// Nodes is the rank count P.
	Nodes int
	// Epochs is N, the epochs run until convergence (or the cap).
	Epochs int
	// TotalHours is TT, the virtual training time in hours.
	TotalHours float64
	// TCA is the final test triple-classification accuracy (percent).
	TCA float64
	// MRR is the final filtered mean reciprocal rank.
	MRR float64
	// Hits1, Hits3 and Hits10 are the final filtered Hits@K.
	Hits1  float64
	Hits3  float64
	Hits10 float64
	// MR is the final filtered mean rank.
	MR float64
	// CommBytes is the total payload volume of the run.
	CommBytes int64
	// CommHours is the virtual time spent communicating.
	CommHours float64
	// RelationCommBytes is the share of CommBytes carrying relation
	// gradients (zero under relation partition — the §4.4 claim).
	RelationCommBytes int64
	// SwitchedAtEpoch is the epoch the dynamic strategy switched to
	// all-gather, or 0 if it never switched / was not dynamic.
	SwitchedAtEpoch int
	// CompressionSteps is the adaptive controller's ladder trajectory: one
	// entry per rung engaged, in ascent order (empty outside dyncomp, or
	// when the ladder never left fp32). After a shrink-recovery the record
	// restarts with the ladder (DESIGN.md §13).
	CompressionSteps []CompressionStep `json:",omitempty"`
	// Recovery reports the fault-tolerance activity of the run; a fault-free
	// run without checkpointing leaves every counter zero except FinalNodes.
	Recovery RecoveryStats
	// Partition reports the row-partition quality of a partitioned run
	// (nil for replicated modes).
	Partition *PartitionStats
	// PerEpoch holds the per-epoch series, one entry per completed epoch
	// (only ValTCA waits on TrackEpochStats).
	PerEpoch []EpochStats
	// FinalParams is the merged trained model (entity rows from the synced
	// replicas, relation rows from their owners under relation partition),
	// ready for evaluation or checkpointing. Excluded from JSON traces:
	// checkpoints carry the weights.
	FinalParams *model.Params `json:"-"`
}

// AvgEpochSeconds returns the mean virtual epoch time.
func (r *Result) AvgEpochSeconds() float64 {
	if len(r.PerEpoch) == 0 {
		return 0
	}
	var s float64
	for _, e := range r.PerEpoch {
		s += e.Seconds
	}
	return s / float64(len(r.PerEpoch))
}
