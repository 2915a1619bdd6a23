package strimko

import (
	"testing"

	"adaptivetc/internal/progtest"
)

// TestAllocBudget: Apply and Undo allocate nothing, accepted or rejected.
func TestAllocBudget(t *testing.T) {
	progtest.MoveAllocs(t, Diagonal(7, 7))
	progtest.MoveAllocs(t, LatinSquares(5))
}
