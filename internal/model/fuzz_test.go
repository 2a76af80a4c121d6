package model

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// validCheckpointBytes builds a small real checkpoint in memory so the
// fuzzer starts from the live format and mutates inward.
func validCheckpointBytes(tb testing.TB, name string, dim, entities, relations int) []byte {
	tb.Helper()
	dir := tb.TempDir()
	path := filepath.Join(dir, "seed.kge2")
	m := New(name, dim)
	p := NewParams(m, entities, relations)
	for i := range p.Entity.Data {
		p.Entity.Data[i] = float32(i%7) * 0.25
	}
	for i := range p.Relation.Data {
		p.Relation.Data[i] = -float32(i%5) * 0.5
	}
	if err := SaveCheckpoint(path, m, p); err != nil {
		tb.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return buf
}

// FuzzReadCheckpoint throws arbitrary bytes at both checkpoint readers.
// The contract under test: corrupt input NEVER panics and NEVER loads —
// it yields an error (integrity failures wrapping ErrCorruptCheckpoint),
// and the header-only reader and the full loader always agree on whether
// a file is acceptable.
func FuzzReadCheckpoint(f *testing.F) {
	seed := validCheckpointBytes(f, "distmult", 4, 6, 3)
	f.Add(seed)
	// Flip the CRC footer.
	bad := append([]byte(nil), seed...)
	bad[len(bad)-1] ^= 0xff
	f.Add(bad)
	// Truncations at structurally interesting offsets.
	f.Add(seed[:3])
	f.Add(seed[:len("KGE2")+4])
	f.Add(seed[:len(seed)/2])
	// Legacy magic and wrong magic.
	f.Add(append([]byte("KGE1"), seed[4:]...))
	f.Add([]byte("not a checkpoint at all"))
	// Huge declared dimensions: name "distmult" (len 8), then dim/entities/
	// relations/width all 0xFFFFFFFF — must be rejected without allocating.
	huge := []byte("KGE2")
	huge = binary.LittleEndian.AppendUint32(huge, 8)
	huge = append(huge, []byte("distmult")...)
	for i := 0; i < 4; i++ {
		huge = binary.LittleEndian.AppendUint32(huge, 0xFFFFFFFF)
	}
	huge = append(huge, 0, 0, 0, 0)
	f.Add(huge)
	// Unknown model name with otherwise plausible geometry.
	unk := []byte("KGE2")
	unk = binary.LittleEndian.AppendUint32(unk, 4)
	unk = append(unk, []byte("evil")...)
	for _, v := range []uint32{4, 2, 2, 4} {
		unk = binary.LittleEndian.AppendUint32(unk, v)
	}
	unk = append(unk, bytes.Repeat([]byte{0}, 4*4*4+4)...)
	f.Add(unk)
	// A known model whose declared width is not New's (transe dim 4 is
	// width 4, not 8), with a valid CRC.
	f.Add(rawCheckpointBytes("transe", 4, 8, 3, 2))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.kge2")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, p, loadErr := LoadCheckpoint(path)
		info, infoErr := ReadCheckpointInfo(path)
		if (loadErr == nil) != (infoErr == nil) {
			t.Fatalf("readers disagree: LoadCheckpoint err=%v, ReadCheckpointInfo err=%v", loadErr, infoErr)
		}
		if loadErr != nil {
			// Exercise the error path's classification: a checksum/shape
			// failure must be distinguishable from an os error.
			_ = errors.Is(loadErr, ErrCorruptCheckpoint)
			return
		}
		// A load that succeeded must be self-consistent with the header.
		if m.Name() != info.Model || m.Dim() != info.Dim || m.Width() != info.Width {
			t.Fatalf("loaded model %s/%d/%d disagrees with header %s", m.Name(), m.Dim(), m.Width(), info)
		}
		if p.Entity.Rows != info.Entities || p.Relation.Rows != info.Relations {
			t.Fatalf("loaded params %dx%d disagree with header %s", p.Entity.Rows, p.Relation.Rows, info)
		}
	})
}
