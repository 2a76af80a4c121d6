// Package scratchhold exercises the scratchhold analyzer: borrowed
// *grad.Encoded / //kgelint:scratch-tagged parameters may be read, written
// and passed on, but never retained past return.
package scratchhold

import "kgedist/internal/grad"

type worker struct {
	ws  *grad.Encoded
	enc *grad.Encoded
	buf []float32
}

var lastScratch *grad.Encoded

var registry = map[int]*grad.Encoded{}

// --- violations ---

func retainGlobal(ws *grad.Encoded) {
	lastScratch = ws // want "package-level variable lastScratch"
}

func (w *worker) retainField(ws *grad.Encoded) {
	w.ws = ws // want "stored in field w.ws"
}

// retainAlias launders the parameter through a local first.
func (w *worker) retainAlias(enc *grad.Encoded) {
	e := enc
	w.enc = e // want "stored in field w.enc"
}

// retainProjection keeps a slice reachable from the borrowed struct: the
// scratch memory is still pinned.
func (w *worker) retainProjection(enc *grad.Encoded) {
	w.buf = enc.Scales // want "stored in field w.buf"
}

func retainElement(enc *grad.Encoded, id int) {
	registry[id] = enc // want "stored in element registry"
}

func publish(ch chan *grad.Encoded, ws *grad.Encoded) {
	ch <- ws // want "sent over a channel"
}

func spawnArg(ws *grad.Encoded) {
	go consume(ws) // want "handed to a goroutine"
}

func spawnCapture(ws *grad.Encoded) {
	go func() {
		ws.Width = 0 // want "captured by a goroutine closure"
	}()
}

//kgelint:scratch out
func (w *worker) fillRetain(out []float32) {
	w.buf = out // want "stored in field w.buf"
	for i := range out {
		out[i] = 0
	}
}

// retainTail keeps a reslice of a tagged scratch param.
//
//kgelint:scratch tmp
func (w *worker) retainTail(tmp []float32) {
	tail := tmp[1:]
	w.buf = tail // want "stored in field w.buf"
}

// --- clean code: none of the below may fire ---

func consume(ws *grad.Encoded) { ws.Width = 0 }

// passThrough returns the borrow to its owner — legal.
func passThrough(ws *grad.Encoded) *grad.Encoded {
	ws.Width = 0
	return ws
}

// use reads through local aliases without retaining anything.
func use(enc *grad.Encoded) float32 {
	v := enc.Scales
	if len(v) == 0 {
		return 0
	}
	return v[0]
}

// fill mutates the tagged scratch in place — the whole point of scratch.
//
//kgelint:scratch out
func fill(out []float32) {
	for i := range out {
		out[i] = 1
	}
}

// keep stores an untagged slice parameter: not scratch, not our business.
func (w *worker) keep(data []float32) {
	w.buf = data
}

// encodeInto mutates the borrowed destination in place, including its own
// fields — grad.QuantizeInto's shape. Stores INTO the borrow are legal.
func encodeInto(e *grad.Encoded, vals []float32) {
	e.Scales = e.Scales[:0]
	e.Scales = append(e.Scales, vals...)
	e.Width = len(vals)
	e.Indices[0] = 1
}

// delegate passes the borrow down the call chain — callees borrow too.
func delegate(ws *grad.Encoded) {
	consume(ws)
}
