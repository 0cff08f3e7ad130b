package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestEachRunsEveryTaskOnce checks that Each hands every index to
// exactly one call, starts min(GOMAXPROCS, n) workers, and keeps each
// worker's state to that worker: every worker counts its tasks in a
// plain int, which -race reports if two workers share it, and the
// counts must add up to n once Each has returned. Run it at -cpu 1,2,4.
func TestEachRunsEveryTaskOnce(t *testing.T) {
	for _, n := range []int{0, 1, 3, 200} {
		calls := make([]atomic.Int32, n)
		var mu sync.Mutex
		var owns []*int
		Each(n, func() func(int) {
			own := new(int)
			mu.Lock()
			owns = append(owns, own)
			mu.Unlock()
			return func(i int) {
				*own++
				calls[i].Add(1)
			}
		})
		for i := range calls {
			if c := calls[i].Load(); c != 1 {
				t.Errorf("n=%d: task %d ran %d times", n, i, c)
			}
		}
		if want := min(runtime.GOMAXPROCS(0), n); len(owns) != want {
			t.Errorf("n=%d: %d workers started, want %d", n, len(owns), want)
		}
		sum := 0
		for _, own := range owns {
			sum += *own
		}
		if sum != n {
			t.Errorf("n=%d: workers counted %d tasks", n, sum)
		}
	}
}
