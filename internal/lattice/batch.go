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
	if len(opts) == 0 {
		return out, 0, nil
	}
	groups := (len(opts) + 3) / 4
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > groups {
		workers = groups
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		failed   atomic.Bool
		priced   atomic.Int64
	)
	stop := make(chan struct{})
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			failed.Store(true)
			close(stop)
		}
		mu.Unlock()
	}

	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qp := e.NewQuadPlan()
			for g := range next {
				if failed.Load() {
					continue // drain doomed work without pricing it
				}
				priced.Add(1)
				lo := g * 4
				hi := min(lo+4, len(opts))
				lane, err := qp.load(opts[lo:hi])
				if err != nil {
					fail(fmt.Errorf("lattice: option %d: %w", lo+lane, err))
					continue
				}
				res := qp.Exec()
				copy(out[lo:hi], res[:hi-lo])
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
	wg.Wait()
	if firstErr != nil {
		return nil, priced.Load(), firstErr
	}
	return out, priced.Load(), nil
}
