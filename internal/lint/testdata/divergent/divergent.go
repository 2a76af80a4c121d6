// Fixture for the divergentcollective analyzer: collective calls reached
// only by some ranks must be flagged; uniform call sequences must not.
package divfix

import (
	"kgedist/internal/grad"
	"kgedist/internal/mpi"
)

func insideIf(c *mpi.Comm, buf []float32) {
	if c.Rank() == 0 {
		c.AllReduceSum(buf, "bad") // want "rank-dependent control flow"
	}
}

func insideElse(c *mpi.Comm, buf []float32) {
	if c.Rank() == 0 {
		buf[0] = 1
	} else {
		c.AllReduceScalar(float64(buf[0]), mpi.OpMax) // want "rank-dependent control flow"
	}
}

func viaVariable(c *mpi.Comm, buf []float32) {
	myID := c.Rank()
	if myID > 1 {
		c.AllGatherBytes(nil, "bad") // want "rank-dependent control flow"
	}
}

func compressedHop(c *mpi.Comm, enc *grad.Encoded, mg *grad.Merger) {
	if c.Rank() == 0 {
		c.ReduceScatterEncoded(enc, 8, mg, nil, "bad") // want "rank-dependent control flow"
	}
}

func earlyReturn(c *mpi.Comm) {
	if c.Rank() == 0 {
		return
	}
	c.Barrier() // want "rank-dependent control flow"
}

func rankBoundedLoop(c *mpi.Comm) {
	for i := 0; i < c.Rank(); i++ {
		c.Barrier() // want "rank-dependent control flow"
	}
}

func rankSwitch(c *mpi.Comm, buf []float32) {
	switch c.Rank() {
	case 0:
		c.AllReduceSum(buf, "bad") // want "rank-dependent control flow"
	default:
		buf[0] = 1
	}
}

func uniform(c *mpi.Comm, buf []float32) {
	c.AllReduceSum(buf, "good")
	if c.Rank() == 0 {
		buf[0] = 1 // rank-local work without collectives is fine
	}
	c.Barrier()
	for i := 0; i < 3; i++ {
		c.AllReduceSum(buf, "good")
	}
}

func uniformClosurePerRank(w *mpi.World, buf []float32) {
	// The canonical pattern: every rank's goroutine runs the same body, so
	// the collectives inside the closure are uniform.
	w.Run(func(c *mpi.Comm) {
		c.AllReduceSum(buf, "good")
	})
}

func suppressed(c *mpi.Comm, buf []float32) {
	if c.Rank() == 0 {
		//kgelint:ignore divergentcollective fixture: proves the escape hatch
		c.AllReduceSum(buf, "ok")
	}
}
