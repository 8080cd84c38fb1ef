package serve

import (
	"context"

	"binopt/internal/option"
)

// PriceOptions is PriceOptionsTimed without the phase breakdown.
func (s *Server) PriceOptions(ctx context.Context, opts []option.Option) ([]Result, error) {
	results, _, err := s.PriceOptionsTimed(ctx, opts)
	return results, err
}

// waitingRuns reports the engine runs waiting in the FIFO.
func (b *batcher) waitingRuns() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.runs
}
