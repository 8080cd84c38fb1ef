package lattice

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"binopt/internal/option"
)

// PriceBatch prices every option in opts and returns the values in the
// same order. workers limits the number of goroutines; workers <= 0 uses
// GOMAXPROCS.
//
// Work is dispatched in quad groups: four consecutive options share one
// interleaved backward sweep (the QuadPlan). A trailing group of fewer
// than four runs the same sweep with its unused lanes mirroring lane 0:
// one lane of a quad sweep still costs less than one scalar sweep. Each
// worker owns one reusable QuadPlan, so a steady batch allocates nothing
// per group. Results are bit-identical to pricing each option alone —
// the quad lanes run the scalar reference's exact operation sequence —
// so parallelism and grouping never change the numbers, only the wall
// clock.
//
// On the first error the dispatcher stops handing out new groups and the
// workers drain the remainder without pricing it: a doomed batch fails
// fast instead of burning cores on work whose results will be discarded.
func (e *Engine) PriceBatch(opts []option.Option, workers int) ([]float64, error) {
	out, _, err := e.priceBatch(opts, workers)
	return out, err
}

// priceBatch additionally reports how many groups were actually priced
// (attempted), which the early-stop regression test pins.
func (e *Engine) priceBatch(opts []option.Option, workers int) ([]float64, int64, error) {
	out := make([]float64, len(opts))
	priced, lane, err := e.dispatchQuads(opts, workers, func(lo int, q *QuadPlan) {
		for i := 0; i < q.lanes; i++ {
			out[lo+i] = q.levels[i][0]
		}
	})
	if err != nil {
		return nil, priced, fmt.Errorf("lattice: option %d: %w", lane, err)
	}
	return out, priced, nil
}

// dispatchQuads is the lattice's one quad dispatcher, shared by
// PriceBatch and PriceAndGreeksBatch: it packs opts four at a time into
// quad groups, sweeps each on a worker's reusable QuadPlan, and calls
// done with the group's first index and the swept plan. done may read
// lanes [0, q.lanes) of the plan and must write only the entries of
// its own group; it runs on the worker goroutines.
//
// It returns the number of groups priced (attempted) and, on failure,
// the index within opts of the first failing option with its error.
func (e *Engine) dispatchQuads(opts []option.Option, workers int, done func(lo int, q *QuadPlan)) (int64, int, error) {
	if len(opts) == 0 {
		return 0, 0, nil
	}
	groups := (len(opts) + 3) / 4
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > groups {
		workers = groups
	}

	// One state value, shared by every worker, keeps a dispatch to a
	// single heap allocation for its bookkeeping.
	var st struct {
		wg     sync.WaitGroup
		mu     sync.Mutex
		err    error // first failure, and the index of its option
		lane   int
		failed atomic.Bool
		priced atomic.Int64
	}
	stop := make(chan struct{})
	next := make(chan int)
	for w := 0; w < workers; w++ {
		st.wg.Add(1)
		go func() {
			defer st.wg.Done()
			qp := e.NewQuadPlan()
			for g := range next {
				if st.failed.Load() {
					continue // drain doomed work without pricing it
				}
				st.priced.Add(1)
				lo := g * 4
				hi := min(lo+4, len(opts))
				lane, err := qp.load(opts[lo:hi])
				if err != nil {
					st.mu.Lock()
					if st.err == nil {
						st.err, st.lane = err, lo+lane
						st.failed.Store(true)
						close(stop)
					}
					st.mu.Unlock()
					continue
				}
				qp.Exec()
				done(lo, qp)
			}
		}()
	}

feed:
	for g := 0; g < groups; g++ {
		select {
		case next <- g:
		case <-stop:
			break feed
		}
	}
	close(next)
	st.wg.Wait()
	return st.priced.Load(), st.lane, st.err
}
