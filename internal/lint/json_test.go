package lint

import (
	"bytes"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestJSONSchema pins the machine-readable schema: field names, order and
// types are the contract editors/CI consume. Changing this output breaks
// downstream tooling — the test must be updated deliberately, not
// incidentally.
func TestJSONSchema(t *testing.T) {
	diags := []Diagnostic{{
		Analyzer: "floateq",
		Pos:      token.Position{Filename: "internal/mpi/algos.go", Line: 42, Column: 7},
		Message:  "exact float comparison",
	}}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, diags); err != nil {
		t.Fatal(err)
	}
	want := `[
  {
    "file": "internal/mpi/algos.go",
    "line": 42,
    "col": 7,
    "analyzer": "floateq",
    "message": "exact float comparison"
  }
]
`
	if got := buf.String(); got != want {
		t.Errorf("JSON schema drifted\n got: %s\nwant: %s", got, want)
	}
}

// TestJSONEmptyIsArray: no findings must still be a JSON array, never null.
func TestJSONEmptyIsArray(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Errorf("empty findings encode as %q, want []", got)
	}
}

// TestSuppressionDiffs checks both directions: adding an ignore for a live
// finding and deleting a stale one.
func TestSuppressionDiffs(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "x.go")
	src := "package x\n\nvar a = b //kgelint:ignore floateq old rationale\n"
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	diags := []Diagnostic{
		{
			Analyzer: "floateq",
			Pos:      token.Position{Filename: file, Line: 3, Column: 1},
			Message:  "exact float comparison",
		},
		{
			Analyzer: UnusedIgnoreName,
			Pos:      token.Position{Filename: file, Line: 3, Column: 1},
			Message:  "stale ignore",
		},
	}
	var buf bytes.Buffer
	if err := WriteSuppressionDiffs(&buf, diags); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "//kgelint:ignore floateq TODO: rationale") {
		t.Errorf("missing suppression suggestion:\n%s", out)
	}
	if !strings.Contains(out, "+var a = b\n") {
		t.Errorf("missing stale-directive removal suggestion:\n%s", out)
	}
}

// TestUnusedIgnoreAudit runs the full suite over a fixture carrying one
// live ignore, one stale ignore and one typo'd analyzer name, and checks
// the audit flushes exactly the dead ones.
func TestUnusedIgnoreAudit(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "unusedignore"))
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, err := RunAnalyzersAudited([]*Package{pkg}, All(), true)
	if err != nil {
		t.Fatal(err)
	}
	var audit []Diagnostic
	for _, d := range diags {
		if d.Analyzer != UnusedIgnoreName {
			t.Errorf("unexpected non-audit finding: %s", d)
			continue
		}
		audit = append(audit, d)
	}
	if len(audit) != 2 {
		t.Fatalf("audit produced %d findings, want 2 (stale + unknown):\n%v", len(audit), audit)
	}
	if !strings.Contains(audit[0].Message, "stale //kgelint:ignore floateq") &&
		!strings.Contains(audit[1].Message, "stale //kgelint:ignore floateq") {
		t.Errorf("no stale-floateq audit finding in %v", audit)
	}
	foundUnknown := false
	for _, d := range audit {
		if strings.Contains(d.Message, "unknown analyzer") {
			foundUnknown = true
		}
	}
	if !foundUnknown {
		t.Errorf("no unknown-analyzer audit finding in %v", audit)
	}

	// A partial run must not flush ignores of analyzers it skipped.
	partial, err := RunAnalyzersAudited([]*Package{pkg}, []*Analyzer{SeedRand}, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range partial {
		if d.Analyzer == UnusedIgnoreName {
			t.Errorf("partial run flushed an ignore it had no evidence about: %s", d)
		}
	}
}
