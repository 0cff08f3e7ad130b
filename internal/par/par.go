// Package par runs the independent tasks of a one-time set-up on every
// available core. A result built with Each cannot depend on the number
// of workers as long as each task writes only its own result slot and
// reads only what was complete before Each was called.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Each calls a function for every task index in [0, n) exactly once and
// returns after the last call has returned. It runs min(GOMAXPROCS, n)
// workers, the calling goroutine being one of them, which take indices
// in rising order from one shared counter; put the longest tasks first.
// newWorker is called once per worker, on that worker's goroutine, and
// returns the function the worker calls for each index it takes, so
// what that function closes over (scratch) belongs to one worker.
func Each(n int, newWorker func() func(i int)) {
	if n <= 0 {
		return
	}
	var next atomic.Int64
	work := func() {
		task := newWorker()
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			task(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
