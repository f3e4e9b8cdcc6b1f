package core

// The concurrent experiment harness. Every Table 1 cell, Figure 9
// timeline, stencil configuration, and scaling row stages its own fresh
// machine, so independent machines fan out across the host's cores; each
// machine's own cycle loop stays single-threaded. Determinism is unaffected — each simulated machine is fully
// self-contained (per-chip state, its own network, a read-only shared
// runtime assembly), results land in caller-indexed slots, and simulated
// cycle counts never depend on host scheduling.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEachMachine runs f(0) .. f(n-1) across min(n, GOMAXPROCS) goroutines
// and returns the lowest-index error, so the reported failure is the same
// one a serial loop would have hit first. Exported for harnesses outside
// this package (cmd/mbench) that fan out over independent machines.
func ForEachMachine(n int, f func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//mlint:allow gocheck experiment fan-out: each goroutine owns a whole machine, no simulated state is shared
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
