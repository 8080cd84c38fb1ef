package scenario

// WithChunk overrides the per-submission contract budget so tests can
// cross chunk boundaries with a small book.
func (e *Engine) WithChunk(contracts int) *Engine {
	c := *e
	if contracts > 0 {
		c.chunk = contracts
	}
	return &c
}
