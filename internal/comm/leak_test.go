package comm

import (
	"testing"

	"commtopk/internal/leakcheck"
)

// TestMain fails the package if goroutines outlive its tests (every
// machine a test builds must be closed).
func TestMain(m *testing.M) { leakcheck.Main(m) }
