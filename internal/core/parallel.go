package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(0) … fn(n-1) across a bounded worker pool and waits
// for all of them. parallelism <= 0 uses one worker per available CPU
// (the same convention as runner.Parallelism, whose worker-pool shape
// this reuses: workers pull indices off an atomic cursor, so uneven job
// costs balance without chunking).
//
// It exists for the full-ILP reporting fan-outs — Study.Run's final
// winner re-simulation, StudyResult.Front()'s per-point workload
// results, the experiment tables — where each job is an independent
// exact-ILP fusion solve against immutable shared plans. fn must be
// safe for concurrent calls and should communicate through index-slotted
// results, keeping output order (and therefore every report) identical
// at any parallelism.
func ForEach(parallelism, n int, fn func(int)) {
	if n <= 0 {
		return
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > n {
		parallelism = n
	}
	if parallelism == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
