package model

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// CheckpointInfo is the KGE2 header: everything a consumer can know about a
// checkpoint without materializing its weight matrices. ReadCheckpointInfo
// fills it in O(1) memory, so startup paths (kgeserve, kgeeval) can reject a
// model/dataset mismatch before committing to a multi-gigabyte load.
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
	return 4 * int64(ci.Width) * int64(ci.Entities+ci.Relations)
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
	var ci CheckpointInfo
	f, err := os.Open(path)
	if err != nil {
		return ci, fmt.Errorf("model: opening checkpoint: %w", err)
	}
	defer f.Close() //kgelint:ignore droppederr read-only close
	fi, err := f.Stat()
	if err != nil {
		return ci, fmt.Errorf("model: stat checkpoint: %w", err)
	}
	ci.Size = fi.Size()
	if fi.Size() < int64(len(checkpointMagic))+4 {
		return ci, fmt.Errorf("%w: %s truncated to %d bytes", ErrCorruptCheckpoint, path, fi.Size())
	}
	bodyLen := fi.Size() - 4
	crc := crc32.NewIEEE()
	r := bufio.NewReader(io.TeeReader(io.LimitReader(f, bodyLen), crc))

	truncated := func(what string, err error) error {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("%w: %s truncated in %s", ErrCorruptCheckpoint, path, what)
		}
		return fmt.Errorf("model: reading checkpoint %s: %w", what, err)
	}

	magic := make([]byte, len(checkpointMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return ci, truncated("magic", err)
	}
	switch string(magic) {
	case checkpointMagic:
	case checkpointMagicLegacy:
		return ci, fmt.Errorf("model: %s is a legacy KGE1 checkpoint (no checksum); re-save it with this version", path)
	default:
		return ci, fmt.Errorf("model: %s is not a KGE checkpoint", path)
	}
	var nameLen uint32
	if err := binary.Read(r, binary.LittleEndian, &nameLen); err != nil {
		return ci, truncated("header", err)
	}
	if nameLen > 64 {
		return ci, fmt.Errorf("%w: implausible model name length %d", ErrCorruptCheckpoint, nameLen)
	}
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(r, nameBuf); err != nil {
		return ci, truncated("name", err)
	}
	var dims [4]uint32
	if err := binary.Read(r, binary.LittleEndian, &dims); err != nil {
		return ci, truncated("dims", err)
	}
	ci.Model = string(nameBuf)
	if !IsKnownModel(ci.Model) {
		return ci, fmt.Errorf("%w: %s names unknown model %q", ErrCorruptCheckpoint, path, ci.Model)
	}
	ci.Dim = int(dims[0])
	ci.Entities = int(dims[1])
	ci.Relations = int(dims[2])
	ci.Width = int(dims[3])

	// The header fully determines the payload length; a mismatch means the
	// file was truncated or grew garbage, so fail before the (cheap but
	// linear) CRC sweep with a precise message.
	headerLen := int64(len(checkpointMagic)) + 4 + int64(nameLen) + 16
	if want := headerLen + ci.PayloadBytes(); want != bodyLen {
		return ci, fmt.Errorf("%w: %s declares %d payload bytes but body holds %d",
			ErrCorruptCheckpoint, path, ci.PayloadBytes(), bodyLen-headerLen)
	}
	// Stream the weight matrices through the hash without storing them.
	if _, err := io.Copy(io.Discard, r); err != nil {
		return ci, fmt.Errorf("model: reading checkpoint payload: %w", err)
	}
	var footer [4]byte
	if _, err := io.ReadFull(f, footer[:]); err != nil {
		return ci, truncated("checksum footer", err)
	}
	ci.CRC = binary.LittleEndian.Uint32(footer[:])
	if got := crc.Sum32(); got != ci.CRC {
		return ci, fmt.Errorf("%w: %s checksum mismatch (have %08x, footer says %08x)",
			ErrCorruptCheckpoint, path, got, ci.CRC)
	}
	return ci, nil
}
