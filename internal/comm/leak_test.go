package comm

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain fails the package if goroutines outlive its tests: every
// machine a test builds must be closed, so once the scheduler workers
// of the last Close have exited the count returns to its start value.
func TestMain(m *testing.M) {
	start := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		if n := settledGoroutines(start); n > start {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			fmt.Fprintf(os.Stderr, "goroutine leak: %d goroutines after the tests, %d before\n%s\n", n, start, buf)
			code = 1
		}
	}
	os.Exit(code)
}

// settledGoroutines polls the goroutine count for up to two seconds,
// giving exiting workers time to finish, and returns the last count. It
// deliberately does not force a GC: the finalizer that releases an
// unclosed machine's workers would hide exactly the leak this catches.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > want; i++ {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}
