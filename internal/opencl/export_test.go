package opencl

// GlobalSize returns get_global_size(0).
func (wi *WorkItem) GlobalSize() int { return wi.g.glSize }

// LocalSize returns get_local_size(0).
func (wi *WorkItem) LocalSize() int { return wi.g.localSize }

// DisableHazardCheck turns conflict detection back off.
func (q *CommandQueue) DisableHazardCheck() {
	q.mu.Lock()
	q.hazards = false
	q.mu.Unlock()
}
