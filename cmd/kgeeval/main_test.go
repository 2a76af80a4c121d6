package main

import (
	"testing"

	"kgedist/internal/kg"
)

// TestMismatchedDatasetIsRefused: a checkpoint of 10 entities and 3
// relations is refused against a dataset of 3 000 and 400 with the shape
// message, and accepted against one of its own shape.
func TestMismatchedDatasetIsRefused(t *testing.T) {
	err := checkShape(10, 3, &kg.Dataset{NumEntities: 3000, NumRelations: 400})
	const want = "kgeeval: checkpoint shape (10 entities, 3 relations) does not match dataset (3000, 400)"
	if err == nil || err.Error() != want {
		t.Fatalf("mismatched dataset: got %v, want %q", err, want)
	}
	if err := checkShape(10, 3, &kg.Dataset{NumEntities: 10, NumRelations: 3}); err != nil {
		t.Fatalf("matching dataset refused: %v", err)
	}
}
