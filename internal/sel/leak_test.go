package sel

import (
	"testing"

	"commtopk/internal/comm"
	"commtopk/internal/leakcheck"
)

// TestMain fails the package if goroutines outlive its tests (every
// machine a test builds must be closed).
func TestMain(m *testing.M) { leakcheck.Main(m) }

// newMachine builds a machine that is closed when the test ends.
func newMachine(tb testing.TB, cfg comm.Config) *comm.Machine {
	m := comm.NewMachine(cfg)
	tb.Cleanup(m.Close)
	return m
}
