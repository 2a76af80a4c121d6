package model

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kgedist/internal/xrand"
)

func TestCheckpointRoundTrip(t *testing.T) {
	for _, name := range []string{"complex", "distmult"} {
		m := New(name, 6)
		p := NewParams(m, 17, 5)
		p.Init(m, xrand.New(3))
		path := filepath.Join(t.TempDir(), "ck.kge")
		if err := SaveCheckpoint(path, m, p); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		m2, p2, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if m2.Name() != name || m2.Dim() != 6 {
			t.Fatalf("%s: model header %s/%d", name, m2.Name(), m2.Dim())
		}
		if p2.Entity.Rows != 17 || p2.Relation.Rows != 5 {
			t.Fatalf("%s: shapes %d/%d", name, p2.Entity.Rows, p2.Relation.Rows)
		}
		for i := range p.Entity.Data {
			if p.Entity.Data[i] != p2.Entity.Data[i] {
				t.Fatalf("%s: entity data differs at %d", name, i)
			}
		}
		for i := range p.Relation.Data {
			if p.Relation.Data[i] != p2.Relation.Data[i] {
				t.Fatalf("%s: relation data differs at %d", name, i)
			}
		}
	}
}

// TestLoadCheckpointWithInfoMatchesHeaderPass: the info the one-pass load
// returns is what the header pass reports, CRC included.
func TestLoadCheckpointWithInfoMatchesHeaderPass(t *testing.T) {
	m := New("transe", 4)
	p := NewParams(m, 9, 3)
	p.Init(m, xrand.New(5))
	path := filepath.Join(t.TempDir(), "ck.kge")
	if err := SaveCheckpoint(path, m, p); err != nil {
		t.Fatal(err)
	}
	want, err := ReadCheckpointInfo(path)
	if err != nil {
		t.Fatal(err)
	}
	_, _, got, err := LoadCheckpointWithInfo(path)
	if err != nil || got != want || got.CRC == 0 {
		t.Fatalf("LoadCheckpointWithInfo: %+v (%v), header pass: %+v", got, err, want)
	}
}

func TestLoadCheckpointErrors(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := LoadCheckpoint(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(bad, []byte("NOPE"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadCheckpoint(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Truncated: valid header, missing data.
	m := New("complex", 4)
	p := NewParams(m, 10, 3)
	full := filepath.Join(dir, "full")
	if err := SaveCheckpoint(full, m, p); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc")
	if err := os.WriteFile(trunc, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadCheckpoint(trunc); err == nil {
		t.Fatal("truncated checkpoint accepted")
	} else if !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("truncated checkpoint error %v does not wrap ErrCorruptCheckpoint", err)
	}
}

func TestLoadCheckpointDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	m := New("complex", 4)
	p := NewParams(m, 10, 3)
	p.Init(m, xrand.New(7))
	path := filepath.Join(dir, "ck.kge")
	if err := SaveCheckpoint(path, m, p); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in every region of the file: header, entity data,
	// relation data, and the checksum footer itself. Each must be caught.
	for _, off := range []int{5, len(data) / 3, len(data) - 10, len(data) - 2} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x40
		badPath := filepath.Join(dir, "bad.kge")
		if err := os.WriteFile(badPath, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := LoadCheckpoint(badPath)
		if err == nil {
			t.Fatalf("bit flip at offset %d silently loaded", off)
		}
		if !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("bit flip at offset %d: error %v does not wrap ErrCorruptCheckpoint", off, err)
		}
	}
	// Truncation at every boundary must be caught too (never a crash, never
	// a silent load).
	for _, n := range []int{3, 7, 20, len(data) - 5, len(data) - 1} {
		badPath := filepath.Join(dir, "short.kge")
		if err := os.WriteFile(badPath, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := LoadCheckpoint(badPath); err == nil {
			t.Fatalf("truncation to %d bytes silently loaded", n)
		}
	}
	// Trailing garbage shifts the hashed region and must also fail.
	badPath := filepath.Join(dir, "long.kge")
	if err := os.WriteFile(badPath, append(append([]byte(nil), data...), 0xAA, 0xBB), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadCheckpoint(badPath); err == nil {
		t.Fatal("checkpoint with trailing garbage silently loaded")
	}
	// The pristine file still loads.
	if _, _, err := LoadCheckpoint(path); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}
}

// rawCheckpointBytes builds a KGE2 file from a hand-written header, a
// zero payload of the declared size and a valid CRC footer, so the
// readers' header checks are what rejects it.
func rawCheckpointBytes(name string, dim, width, entities, relations uint32) []byte {
	body := []byte(checkpointMagic)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(name)))
	body = append(body, name...)
	for _, v := range []uint32{dim, entities, relations, width} {
		body = binary.LittleEndian.AppendUint32(body, v)
	}
	body = append(body, make([]byte, 4*int(width)*int(entities+relations))...)
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// bothReadersReject writes data and requires LoadCheckpoint and
// ReadCheckpointInfo to fail it with ErrCorruptCheckpoint, naming want.
func bothReadersReject(t *testing.T, data []byte, want string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bad.kge")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, loadErr := LoadCheckpoint(path)
	_, infoErr := ReadCheckpointInfo(path)
	for reader, err := range map[string]error{"LoadCheckpoint": loadErr, "ReadCheckpointInfo": infoErr} {
		if !errors.Is(err, ErrCorruptCheckpoint) || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want ErrCorruptCheckpoint naming %s", reader, err, want)
		}
	}
}

// A well-formed KGE2 file of a model this build no longer has (RotatE was
// deleted) fails both readers as corrupt, naming the model, instead of
// reaching New's panic.
func TestLoadCheckpointRejectsDeletedModel(t *testing.T) {
	bothReadersReject(t, rawCheckpointBytes("rotate", 4, 8, 3, 2), `"rotate"`)
}

// TestCheckpointReadersRejectImpossibleShape covers headers whose name is
// known but whose geometry New cannot have written: ReadCheckpointInfo
// must refuse them as the loader does.
func TestCheckpointReadersRejectImpossibleShape(t *testing.T) {
	bothReadersReject(t, rawCheckpointBytes("transe", 4, 8, 3, 2), "width 8 does not match transe dim 4")
	bothReadersReject(t, rawCheckpointBytes("complex", 0, 0, 3, 2), "impossible geometry")
}

func TestLoadCheckpointRejectsLegacyFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.kge")
	if err := os.WriteFile(path, []byte("KGE1somebytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := LoadCheckpoint(path)
	if err == nil {
		t.Fatal("legacy KGE1 checkpoint accepted")
	}
	if !strings.Contains(err.Error(), "legacy") {
		t.Fatalf("legacy error %v should name the format", err)
	}
}

func TestSaveCheckpointIsAtomic(t *testing.T) {
	dir := t.TempDir()
	m := New("complex", 4)
	p := NewParams(m, 10, 3)
	p.Init(m, xrand.New(7))
	path := filepath.Join(dir, "ck.kge")
	if err := SaveCheckpoint(path, m, p); err != nil {
		t.Fatal(err)
	}
	// No temporary file survives a successful save.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("stale temporary file after save: %v", err)
	}
	// A failed save (target directory vanished) must not leave a tmp file
	// behind either.
	gone := filepath.Join(dir, "nope", "ck.kge")
	if err := SaveCheckpoint(gone, m, p); err == nil {
		t.Fatal("save into missing directory succeeded")
	}
	if _, err := os.Stat(gone + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("stale temporary file after failed save: %v", err)
	}
	// Overwriting an existing checkpoint goes through the same rename path;
	// the old file is replaced only by a complete, verifiable new one.
	p.Entity.Data[0] += 1
	if err := SaveCheckpoint(path, m, p); err != nil {
		t.Fatal(err)
	}
	_, p2, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Entity.Data[0] != p.Entity.Data[0] {
		t.Fatal("overwrite did not publish the new contents")
	}
}
