package core

import "repro/internal/gpu"

// gpuNoopKernel returns a minimal kernel for plumbing tests; ran (if
// non-nil) observes whether the functional body executed. Groups of one
// launch may run at once, so only group 0 writes it.
func gpuNoopKernel(ran *bool) gpu.Kernel {
	return gpu.Kernel{
		Name:          "noop",
		FlopsPerGroup: 1e6,
		BytesPerGroup: 1e3,
		Run: func(g int) {
			if ran != nil && g == 0 {
				*ran = true
			}
		},
	}
}
