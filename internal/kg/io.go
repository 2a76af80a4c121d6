package kg

import (
	"bufio"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// The on-disk layout follows the OpenKE benchmark convention used by the
// paper's datasets: a directory with train2id.txt, valid2id.txt and
// test2id.txt, each starting with a count line followed by one
// "head tail relation" id triple per line, plus entity2id.txt and
// relation2id.txt whose first lines carry the entity/relation counts.

// SaveDir writes the dataset to dir in OpenKE layout, creating dir if
// needed.
func SaveDir(d *Dataset, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("kg: creating %s: %w", dir, err)
	}
	writeSplit := func(name string, ts []Triple) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		fmt.Fprintf(w, "%d\n", len(ts))
		for _, t := range ts {
			fmt.Fprintf(w, "%d %d %d\n", t.H, t.T, t.R)
		}
		if err := w.Flush(); err != nil {
			_ = f.Close()
			return err
		}
		return f.Close()
	}
	writeCount := func(name string, n int) error {
		return os.WriteFile(filepath.Join(dir, name), []byte(fmt.Sprintf("%d\n", n)), 0o644)
	}
	if err := writeSplit("train2id.txt", d.Train); err != nil {
		return fmt.Errorf("kg: writing train split: %w", err)
	}
	if err := writeSplit("valid2id.txt", d.Valid); err != nil {
		return fmt.Errorf("kg: writing valid split: %w", err)
	}
	if err := writeSplit("test2id.txt", d.Test); err != nil {
		return fmt.Errorf("kg: writing test split: %w", err)
	}
	if err := writeCount("entity2id.txt", d.NumEntities); err != nil {
		return fmt.Errorf("kg: writing entity count: %w", err)
	}
	if err := writeCount("relation2id.txt", d.NumRelations); err != nil {
		return fmt.Errorf("kg: writing relation count: %w", err)
	}
	return nil
}

// LoadDir reads a dataset in OpenKE layout from dir.
func LoadDir(dir string) (*Dataset, error) {
	d := &Dataset{Name: filepath.Base(dir)}
	var err error
	if d.Train, err = loadSplit(filepath.Join(dir, "train2id.txt")); err != nil {
		return nil, err
	}
	if d.Valid, err = loadSplit(filepath.Join(dir, "valid2id.txt")); err != nil {
		return nil, err
	}
	if d.Test, err = loadSplit(filepath.Join(dir, "test2id.txt")); err != nil {
		return nil, err
	}
	if d.NumEntities, err = loadCount(filepath.Join(dir, "entity2id.txt")); err != nil {
		return nil, err
	}
	if d.NumRelations, err = loadCount(filepath.Join(dir, "relation2id.txt")); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// Load returns the dataset a command line names: the Freebase-text layout
// in namedDir if set (see LoadNamedDir), else the OpenKE layout in dir if
// set, else the synthetic preset generated from seed.
func Load(preset, dir, namedDir string, seed uint64) (*Dataset, error) {
	switch {
	case namedDir != "":
		d, _, err := LoadNamedDir(namedDir)
		return d, err
	case dir != "":
		return LoadDir(dir)
	}
	cfg, ok := presets[preset]
	if !ok {
		return nil, fmt.Errorf("kg: unknown dataset preset %q (want one of %s, or a dataset directory)",
			preset, strings.Join(slices.Sorted(maps.Keys(presets)), ", "))
	}
	return Generate(cfg(seed)), nil
}

func loadSplit(path string) ([]Triple, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("kg: opening split: %w", err)
	}
	defer f.Close() //kgelint:ignore droppederr read-only close
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("kg: %s: missing count line", path)
	}
	n, err := strconv.Atoi(strings.TrimSpace(sc.Text()))
	if err != nil || n < 0 {
		return nil, fmt.Errorf("kg: %s: bad count line %q", path, sc.Text())
	}
	out := make([]Triple, 0, n)
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 3 {
			return nil, fmt.Errorf("kg: %s:%d: want 3 fields, got %q", path, line, text)
		}
		h, err1 := strconv.ParseInt(fields[0], 10, 32)
		t, err2 := strconv.ParseInt(fields[1], 10, 32)
		r, err3 := strconv.ParseInt(fields[2], 10, 32)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("kg: %s:%d: non-integer field in %q", path, line, text)
		}
		out = append(out, Triple{H: int32(h), T: int32(t), R: int32(r)})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("kg: reading %s: %w", path, err)
	}
	if len(out) != n {
		return nil, fmt.Errorf("kg: %s: count line says %d, found %d triples", path, n, len(out))
	}
	return out, nil
}

func loadCount(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("kg: opening count file: %w", err)
	}
	defer f.Close() //kgelint:ignore droppederr read-only close
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, fmt.Errorf("kg: %s: empty", path)
	}
	n, err := strconv.Atoi(strings.TrimSpace(sc.Text()))
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("kg: %s: bad count %q", path, sc.Text())
	}
	return n, nil
}
