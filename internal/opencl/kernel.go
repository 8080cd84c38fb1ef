package opencl

import "fmt"

// KernelFunc is the body of a kernel, executed once per work-item. It
// corresponds to the OpenCL C function marked __kernel; the WorkItem
// argument plays the role of the implicit work-item state (get_global_id
// and friends) plus the argument list.
type KernelFunc func(wi *WorkItem)

// LocalAlloc declares a __local memory argument: a scratch array of n
// elements shared by the work-items of each work-group.
type LocalAlloc struct {
	N         int
	ElemBytes int
}

// Kernel pairs a kernel function with its bound arguments, the analogue
// of clCreateKernel + clSetKernelArg.
type Kernel struct {
	Name string
	// UsesBarriers must be true for kernels that call WorkItem.Barrier.
	// Such kernels run their work-groups with one goroutine per work-item
	// so that the barrier can rendezvous; barrier-free kernels use a
	// faster sequential schedule per group (the results are identical —
	// OpenCL guarantees nothing about intra-group ordering without
	// barriers).
	UsesBarriers bool

	fn   KernelFunc
	args []any
}

// NewKernel creates a kernel from a function body.
func NewKernel(name string, usesBarriers bool, fn KernelFunc) *Kernel {
	return &Kernel{Name: name, UsesBarriers: usesBarriers, fn: fn}
}

// SetArgs binds the full argument list. Allowed argument types: *Buffer
// (global memory), LocalAlloc (local memory) and int, the kinds the
// kernels read; a float scalar travels in a buffer. Rebinding is allowed
// between enqueues, as in OpenCL.
func (k *Kernel) SetArgs(args ...any) error {
	for i, a := range args {
		switch a.(type) {
		case *Buffer, LocalAlloc, int:
		default:
			return fmt.Errorf("opencl: kernel %q arg %d has unsupported type %T", k.Name, i, a)
		}
	}
	k.args = args
	return nil
}

// localArgs returns the indices and specs of the kernel's local-memory
// arguments.
func (k *Kernel) localArgs() map[int]LocalAlloc {
	out := make(map[int]LocalAlloc)
	for i, a := range k.args {
		if l, ok := a.(LocalAlloc); ok {
			out[i] = l
		}
	}
	return out
}
