package model

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Checkpoint file layout (little endian):
//
//	magic "KGE2" | nameLen u32 | name | dim u32 | entities u32 |
//	relations u32 | width u32 | entity data f32s | relation data f32s |
//	crc32 u32
//
// The trailing CRC-32 (IEEE) covers every byte before it. Writes are
// crash-safe: the file is assembled at path+".tmp", fsynced, and renamed
// into place, so a crash mid-write leaves the previous checkpoint intact
// and a torn write is caught by the checksum on load. The former "KGE1"
// format (no checksum) is rejected with a distinct error.

const (
	checkpointMagic       = "KGE2"
	checkpointMagicLegacy = "KGE1"
)

// ErrCorruptCheckpoint is wrapped by LoadCheckpoint errors caused by a
// failed integrity check (truncation or checksum mismatch), as opposed to a
// missing file or an unrecognized format.
var ErrCorruptCheckpoint = errors.New("model: corrupt checkpoint")

// SaveCheckpoint writes the model name, dimension and parameters to path
// using the crash-safe protocol: write to path+".tmp" with a CRC-32 footer,
// fsync, rename over path. On error the temporary file is removed and any
// existing checkpoint at path is left untouched.
func SaveCheckpoint(path string, m Model, p *Params) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("model: creating checkpoint: %w", err)
	}
	fail := func(stage string, err error) error {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("model: %s checkpoint: %w", stage, err)
	}
	bw := bufio.NewWriter(f)
	crc := crc32.NewIEEE()
	w := io.MultiWriter(bw, crc) // body bytes are hashed as they are written
	werr := func() error {
		if _, err := w.Write([]byte(checkpointMagic)); err != nil {
			return err
		}
		name := m.Name()
		hdr := []uint32{uint32(len(name))}
		if err := binary.Write(w, binary.LittleEndian, hdr); err != nil {
			return err
		}
		if _, err := w.Write([]byte(name)); err != nil {
			return err
		}
		dims := []uint32{uint32(m.Dim()), uint32(p.Entity.Rows), uint32(p.Relation.Rows), uint32(m.Width())}
		if err := binary.Write(w, binary.LittleEndian, dims); err != nil {
			return err
		}
		if err := writeF32(w, p.Entity.Data); err != nil {
			return err
		}
		if err := writeF32(w, p.Relation.Data); err != nil {
			return err
		}
		// Footer: checksum of everything above, itself unhashed.
		return binary.Write(bw, binary.LittleEndian, crc.Sum32())
	}()
	if werr != nil {
		return fail("writing", werr)
	}
	if err := bw.Flush(); err != nil {
		return fail("flushing", err)
	}
	if err := f.Sync(); err != nil {
		return fail("syncing", err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("model: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("model: publishing checkpoint: %w", err)
	}
	// Best-effort directory sync so the rename itself survives a crash;
	// not all filesystems support it, so errors are ignored.
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		_ = dir.Sync()
		_ = dir.Close()
	}
	return nil
}

// LoadCheckpoint reads a checkpoint, verifies its checksum, and
// reconstructs the model and its parameters. Truncated or corrupted files
// are rejected with an error wrapping ErrCorruptCheckpoint — a damaged
// checkpoint is never silently loaded.
func LoadCheckpoint(path string) (Model, *Params, error) {
	m, p, _, err := LoadCheckpointWithInfo(path)
	return m, p, err
}

// LoadCheckpointWithInfo is LoadCheckpoint that also returns the header and
// CRC it verified, as ReadCheckpointInfo would report them, from the same
// single pass over the file.
func LoadCheckpointWithInfo(path string) (Model, *Params, CheckpointInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, CheckpointInfo{}, fmt.Errorf("model: opening checkpoint: %w", err)
	}
	defer f.Close() //kgelint:ignore droppederr read-only close
	cr, err := readHeader(f, path)
	if err != nil {
		return nil, nil, CheckpointInfo{}, err
	}
	m := New(cr.info.Model, cr.info.Dim)
	p := NewParams(m, cr.info.Entities, cr.info.Relations)
	if err := readF32(cr.r, p.Entity.Data); err != nil {
		return nil, nil, CheckpointInfo{}, cr.truncated("entity matrix", err)
	}
	if err := readF32(cr.r, p.Relation.Data); err != nil {
		return nil, nil, CheckpointInfo{}, cr.truncated("relation matrix", err)
	}
	if cr.info.CRC, err = cr.verify(); err != nil {
		return nil, nil, CheckpointInfo{}, err
	}
	return m, p, cr.info, nil
}

func writeF32(w io.Writer, data []float32) error {
	buf := make([]byte, 4*4096)
	for off := 0; off < len(data); off += 4096 {
		end := off + 4096
		if end > len(data) {
			end = len(data)
		}
		chunk := data[off:end]
		for i, v := range chunk {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		if _, err := w.Write(buf[:4*len(chunk)]); err != nil {
			return err
		}
	}
	return nil
}

func readF32(r io.Reader, data []float32) error {
	buf := make([]byte, 4*4096)
	for off := 0; off < len(data); off += 4096 {
		end := off + 4096
		if end > len(data) {
			end = len(data)
		}
		n := 4 * (end - off)
		if _, err := io.ReadFull(r, buf[:n]); err != nil {
			return err
		}
		for i := off; i < end; i++ {
			data[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*(i-off):]))
		}
	}
	return nil
}
