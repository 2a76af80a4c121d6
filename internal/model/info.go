package model

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
)

// CheckpointInfo is the KGE2 header: everything a consumer can know about a
// checkpoint without materializing its weight matrices. ReadCheckpointInfo
// fills it in O(1) memory for a caller that does not load the weights;
// LoadCheckpointWithInfo returns it from the load's own pass, which is how
// kgeserve (through serve.OpenStore) and kgeeval check a dataset's shape.
type CheckpointInfo struct {
	// Model is the model name stored in the header ("complex", ...).
	Model string `json:"model"`
	// Dim is the nominal embedding dimension.
	Dim int `json:"dim"`
	// Width is the number of floats per embedding row (2*Dim for ComplEx).
	Width int `json:"width"`
	// Entities and Relations are the embedding matrix row counts.
	Entities  int `json:"entities"`
	Relations int `json:"relations"`
	// Size is the checkpoint file size in bytes.
	Size int64 `json:"size_bytes"`
	// CRC is the file's CRC-32 (IEEE) footer — a stable identity for the
	// parameter snapshot, reported by kgeserve's /healthz as the loaded
	// checkpoint version.
	CRC uint32 `json:"crc32"`
}

// PayloadBytes returns the expected byte length of the two weight matrices.
func (ci CheckpointInfo) PayloadBytes() int64 {
	return 4 * int64(ci.Width) * (int64(ci.Entities) + int64(ci.Relations))
}

// String renders the header compactly for logs and error messages.
func (ci CheckpointInfo) String() string {
	return fmt.Sprintf("%s dim=%d width=%d entities=%d relations=%d crc=%08x",
		ci.Model, ci.Dim, ci.Width, ci.Entities, ci.Relations, ci.CRC)
}

// ReadCheckpointInfo reads and validates the KGE2 header of the checkpoint
// at path without loading the weight matrices. The whole file is still
// streamed through the CRC-32 check (in constant memory), so a torn or
// corrupted checkpoint is rejected here exactly as LoadCheckpoint would
// reject it, and the declared shape is cross-checked against the file size.
// Corruption is reported wrapping ErrCorruptCheckpoint.
func ReadCheckpointInfo(path string) (CheckpointInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return CheckpointInfo{}, fmt.Errorf("model: opening checkpoint: %w", err)
	}
	defer f.Close() //kgelint:ignore droppederr read-only close
	cr, err := readHeader(f, path)
	if err != nil {
		return CheckpointInfo{}, err
	}
	// Stream the weight matrices through the hash without storing them.
	if cr.info.CRC, err = cr.verify(); err != nil {
		return CheckpointInfo{}, err
	}
	return cr.info, nil
}

// checkpointReader is a KGE2 file whose header has been read and
// validated: r stands at the first payload byte and hashes every body byte
// it yields into crc. LoadCheckpoint and ReadCheckpointInfo both parse
// through readHeader, so the two readers accept exactly the same headers.
type checkpointReader struct {
	f    *os.File
	r    *bufio.Reader
	crc  hash.Hash32
	path string
	info CheckpointInfo // everything but CRC, which verify reads
}

// readHeader reads and validates the header of the open checkpoint f.
func readHeader(f *os.File, path string) (*checkpointReader, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("model: stat checkpoint: %w", err)
	}
	if fi.Size() < int64(len(checkpointMagic))+4 {
		return nil, fmt.Errorf("%w: %s truncated to %d bytes", ErrCorruptCheckpoint, path, fi.Size())
	}
	// Hash exactly the body region [0, size-4): the reader cannot consume
	// past it, and verify drains whatever the caller leaves behind through
	// the hash before the footer check, so trailing garbage inside the
	// region flips the checksum rather than being ignored.
	bodyLen := fi.Size() - 4
	cr := &checkpointReader{f: f, crc: crc32.NewIEEE(), path: path, info: CheckpointInfo{Size: fi.Size()}}
	cr.r = bufio.NewReader(io.TeeReader(io.LimitReader(f, bodyLen), cr.crc))

	magic := make([]byte, len(checkpointMagic))
	if _, err := io.ReadFull(cr.r, magic); err != nil {
		return nil, cr.truncated("magic", err)
	}
	switch string(magic) {
	case checkpointMagic:
	case checkpointMagicLegacy:
		return nil, fmt.Errorf("model: %s is a legacy KGE1 checkpoint (no checksum); re-save it with this version", path)
	default:
		return nil, fmt.Errorf("model: %s is not a KGE checkpoint", path)
	}
	var nameLen uint32
	if err := binary.Read(cr.r, binary.LittleEndian, &nameLen); err != nil {
		return nil, cr.truncated("header", err)
	}
	if nameLen > 64 {
		return nil, fmt.Errorf("%w: implausible model name length %d", ErrCorruptCheckpoint, nameLen)
	}
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(cr.r, nameBuf); err != nil {
		return nil, cr.truncated("name", err)
	}
	var dims [4]uint32
	if err := binary.Read(cr.r, binary.LittleEndian, &dims); err != nil {
		return nil, cr.truncated("dims", err)
	}
	ci := &cr.info
	ci.Model, ci.Dim, ci.Entities, ci.Relations, ci.Width = string(nameBuf), int(dims[0]), int(dims[1]), int(dims[2]), int(dims[3])
	// A corrupt header must never reach New or NewParams: New panics on an
	// unknown name or a non-positive dimension, and unvalidated row counts
	// would size an arbitrarily large allocation from four attacker-chosen
	// bytes. Validate the name, require positive geometry, and cross-check
	// the declared payload length against the actual body size before
	// constructing anything.
	if !IsKnownModel(ci.Model) {
		return nil, fmt.Errorf("%w: %s names unknown model %q", ErrCorruptCheckpoint, path, ci.Model)
	}
	if ci.Dim <= 0 || ci.Width <= 0 || ci.Entities < 0 || ci.Relations < 0 {
		return nil, fmt.Errorf("%w: %s declares impossible geometry dim=%d width=%d entities=%d relations=%d",
			ErrCorruptCheckpoint, path, ci.Dim, ci.Width, ci.Entities, ci.Relations)
	}
	headerLen := int64(len(checkpointMagic)) + 4 + int64(nameLen) + 16
	if headerLen+ci.PayloadBytes() != bodyLen {
		return nil, fmt.Errorf("%w: %s declares %d payload bytes but body holds %d",
			ErrCorruptCheckpoint, path, ci.PayloadBytes(), bodyLen-headerLen)
	}
	if w := New(ci.Model, ci.Dim).Width(); w != ci.Width {
		return nil, fmt.Errorf("%w: %s checkpoint width %d does not match %s dim %d",
			ErrCorruptCheckpoint, path, ci.Width, ci.Model, ci.Dim)
	}
	return cr, nil
}

// truncated classifies a read error: running out of bytes is corruption,
// anything else an I/O failure.
func (cr *checkpointReader) truncated(what string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: %s truncated in %s", ErrCorruptCheckpoint, cr.path, what)
	}
	return fmt.Errorf("model: reading checkpoint %s: %w", what, err)
}

// verify drains the rest of the body through the hash and checks it
// against the footer, returning the footer's CRC.
func (cr *checkpointReader) verify() (uint32, error) {
	if _, err := io.Copy(io.Discard, cr.r); err != nil {
		return 0, fmt.Errorf("model: reading checkpoint payload: %w", err)
	}
	var footer [4]byte
	if _, err := io.ReadFull(cr.f, footer[:]); err != nil {
		return 0, cr.truncated("checksum footer", err)
	}
	want := binary.LittleEndian.Uint32(footer[:])
	if got := cr.crc.Sum32(); got != want {
		return 0, fmt.Errorf("%w: %s checksum mismatch (have %08x, footer says %08x)", ErrCorruptCheckpoint, cr.path, got, want)
	}
	return want, nil
}
