package opencl

import "fmt"

// GlobalSize returns get_global_size(0).
func (wi *WorkItem) GlobalSize() int { return wi.g.glSize }

// LocalSize returns get_local_size(0).
func (wi *WorkItem) LocalSize() int { return wi.g.localSize }

// Float returns argument i as a float64 scalar.
func (wi *WorkItem) Float(i int) float64 {
	f, ok := wi.arg(i).(float64)
	if !ok {
		panic(fmt.Errorf("opencl: kernel %q arg %d is %T, not float64", wi.g.kernel.Name, i, wi.arg(i)))
	}
	return f
}

// DisableHazardCheck turns conflict detection back off.
func (q *CommandQueue) DisableHazardCheck() {
	q.mu.Lock()
	q.hazards = false
	q.mu.Unlock()
}
