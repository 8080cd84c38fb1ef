package opencl

import (
	"fmt"
	"sync"
)

// groupCtx is the shared state of one executing work-group: the local
// memory allocations and the barrier.
type groupCtx struct {
	kernel    *Kernel
	groupID   int
	localSize int
	glSize    int
	locals    map[int][]float64
	localElem map[int]int64
	bar       *barrier
	hazard    *hazardTracker
}

// WorkItem is the per-work-item execution context handed to kernel
// functions. It exposes the OpenCL work-item built-ins, the argument
// list, the metered memory accessors and the barrier. A WorkItem must not
// escape its kernel invocation.
type WorkItem struct {
	g        *groupCtx
	globalID int
	localID  int
	stats    Counters
}

// GlobalID returns get_global_id(0).
func (wi *WorkItem) GlobalID() int { return wi.globalID }

// LocalID returns get_local_id(0).
func (wi *WorkItem) LocalID() int { return wi.localID }

// GroupID returns get_group_id(0).
func (wi *WorkItem) GroupID() int { return wi.g.groupID }

// arg fetches a bound argument with a diagnostic on mismatch.
func (wi *WorkItem) arg(i int) any {
	args := wi.g.kernel.args
	if i < 0 || i >= len(args) {
		panic(fmt.Errorf("opencl: kernel %q has no arg %d (got %d args)", wi.g.kernel.Name, i, len(args)))
	}
	return args[i]
}

// Buffer returns argument i as a global buffer.
func (wi *WorkItem) Buffer(i int) *Buffer {
	b, ok := wi.arg(i).(*Buffer)
	if !ok {
		panic(fmt.Errorf("opencl: kernel %q arg %d is %T, not *Buffer", wi.g.kernel.Name, i, wi.arg(i)))
	}
	return b
}

// Int returns argument i as an int scalar.
func (wi *WorkItem) Int(i int) int {
	v, ok := wi.arg(i).(int)
	if !ok {
		panic(fmt.Errorf("opencl: kernel %q arg %d is %T, not int", wi.g.kernel.Name, i, wi.arg(i)))
	}
	return v
}

// Local returns the work-group's local-memory array bound at argument i.
// All work-items of the group see the same backing array; accesses should
// go through LoadLocal/StoreLocal so they are metered.
func (wi *WorkItem) Local(i int) []float64 {
	l, ok := wi.g.locals[i]
	if !ok {
		panic(fmt.Errorf("opencl: kernel %q arg %d is not a LocalAlloc", wi.g.kernel.Name, i))
	}
	return l
}

// Load reads global memory and meters the traffic.
func (wi *WorkItem) Load(b *Buffer, idx int) float64 {
	wi.stats.GlobalReads += b.elemBytes
	if h := wi.g.hazard; h != nil {
		h.mu.Lock()
		defer h.mu.Unlock()
		h.note(b, idx, wi.globalID, false)
	}
	return b.at(idx)
}

// Store writes global memory and meters the traffic.
func (wi *WorkItem) Store(b *Buffer, idx int, v float64) {
	wi.stats.GlobalWrites += b.elemBytes
	if h := wi.g.hazard; h != nil {
		h.mu.Lock()
		defer h.mu.Unlock()
		h.note(b, idx, wi.globalID, true)
	}
	b.set(idx, v)
}

// LoadLocal reads the local array bound at argument arg.
func (wi *WorkItem) LoadLocal(arg, idx int) float64 {
	l := wi.Local(arg)
	if idx < 0 || idx >= len(l) {
		panic(fmt.Errorf("opencl: kernel %q local arg %d read out of range: %d of %d",
			wi.g.kernel.Name, arg, idx, len(l)))
	}
	wi.stats.LocalReads += wi.g.localElem[arg]
	return l[idx]
}

// StoreLocal writes the local array bound at argument arg.
func (wi *WorkItem) StoreLocal(arg, idx int, v float64) {
	l := wi.Local(arg)
	if idx < 0 || idx >= len(l) {
		panic(fmt.Errorf("opencl: kernel %q local arg %d write out of range: %d of %d",
			wi.g.kernel.Name, arg, idx, len(l)))
	}
	wi.stats.LocalWrites += wi.g.localElem[arg]
	l[idx] = v
}

// AddFlops tallies floating-point work for the performance models.
func (wi *WorkItem) AddFlops(n int) { wi.stats.Flops += int64(n) }

// Barrier synchronises the work-group (CLK_LOCAL_MEM_FENCE semantics: all
// local and global accesses issued before the barrier are visible after
// it). Calling it from a kernel created with usesBarriers=false panics,
// because the sequential schedule cannot honour it.
func (wi *WorkItem) Barrier() {
	if wi.g.bar == nil {
		panic(fmt.Errorf("opencl: kernel %q calls Barrier but was created with usesBarriers=false", wi.g.kernel.Name))
	}
	wi.stats.Barriers++
	wi.g.bar.await()
}

// errBarrierBroken is the panic value delivered to work-items parked on a
// barrier whose group had another work-item fail; it lets the whole group
// unwind instead of deadlocking.
var errBarrierBroken = fmt.Errorf("opencl: work-group barrier broken by a failed work-item")

// barrier is a reusable (cyclic) barrier for n parties with Java-style
// breakage semantics.
type barrier struct {
	mu         sync.Mutex
	cond       *sync.Cond
	parties    int
	waiting    int
	generation uint64
	broken     bool
}

func newBarrier(parties int) *barrier {
	b := &barrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) await() {
	b.mu.Lock()
	if b.broken {
		b.mu.Unlock()
		panic(errBarrierBroken)
	}
	gen := b.generation
	b.waiting++
	if b.waiting == b.parties {
		b.waiting = 0
		b.generation++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for gen == b.generation && !b.broken {
		b.cond.Wait()
	}
	broken := b.broken
	b.mu.Unlock()
	if broken {
		panic(errBarrierBroken)
	}
}

// breakBarrier wakes every parked work-item with errBarrierBroken and
// makes all future awaits fail immediately.
func (b *barrier) breakBarrier() {
	b.mu.Lock()
	b.broken = true
	b.cond.Broadcast()
	b.mu.Unlock()
}
