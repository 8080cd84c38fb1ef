package opencl

import (
	"fmt"
	"sort"
	"sync"
)

// hazardTracker records element-granular global-memory accesses during
// one NDRange and reports read/write and write/write conflicts between
// different work-items. OpenCL gives no ordering between work-items of
// an NDRange outside barriers (and none at all across work-groups), so
// such conflicts are races: exactly the hazard the paper's ping-pong
// buffering exists to avoid ("To avoid any memory conflict, ping-pong
// buffering is used", §IV-A). The tracker is optional — element-level
// bookkeeping is costly — and intended for tests and kernel bring-up.
type hazardTracker struct {
	mu sync.Mutex
	// access maps buffer -> element -> first accessor and kind.
	access map[*Buffer]map[int]accessRecord
	found  []string
}

type accessRecord struct {
	workItem int
	wrote    bool
}

func newHazardTracker() *hazardTracker {
	return &hazardTracker{access: make(map[*Buffer]map[int]accessRecord)}
}

// note records one access and logs a conflict when a different work-item
// already touched the element incompatibly. Caller holds h.mu, and
// performs the access itself in the same critical section, so colliding
// accesses from concurrent work-groups are serialised, not raced.
func (h *hazardTracker) note(b *Buffer, idx int, wi int, write bool) {
	m := h.access[b]
	if m == nil {
		m = make(map[int]accessRecord)
		h.access[b] = m
	}
	prev, seen := m[idx]
	if !seen {
		m[idx] = accessRecord{workItem: wi, wrote: write}
		return
	}
	if prev.workItem != wi && (prev.wrote || write) {
		kind := "read/write"
		if prev.wrote && write {
			kind = "write/write"
		}
		a, c := prev.workItem, wi
		if a > c {
			a, c = c, a
		}
		h.found = append(h.found, fmt.Sprintf(
			"%s conflict on buffer %q element %d between work-items %d and %d",
			kind, b.name, idx, a, c))
	}
	if write {
		m[idx] = accessRecord{workItem: wi, wrote: true}
	}
}

// report returns the recorded conflicts, deduplicated and sorted.
func (h *hazardTracker) report() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	seen := make(map[string]bool, len(h.found))
	var out []string
	for _, s := range h.found {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// EnableHazardCheck turns on element-granular conflict detection for
// subsequent EnqueueNDRange calls on this queue. Each NDRange is checked
// independently (the OpenCL memory model orders commands, not
// work-items). Detected conflicts turn the enqueue into an error.
func (q *CommandQueue) EnableHazardCheck() {
	q.mu.Lock()
	q.hazards = true
	q.mu.Unlock()
}

func (q *CommandQueue) hazardsEnabled() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.hazards
}
