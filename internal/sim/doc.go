// Package sim implements a deterministic discrete-event simulation (DES)
// engine used as the timing substrate for the Northup reproduction.
//
// The paper's evaluation ran on real hardware (an AMD APU, a discrete GPU, a
// PCIe SSD and a SATA disk drive). This repository replaces wall-clock time
// on that hardware with virtual time: every simulated activity (an I/O
// request, a DMA transfer, a GPU kernel, a CPU thread) is a process that
// advances a shared virtual clock. Because all the paper's results are
// relative (normalized runtimes, breakdown fractions, speedups), a calibrated
// virtual clock preserves the shapes of the figures while keeping runs
// deterministic and fast.
//
// # Model
//
// A Proc is a coroutine that cooperates with a single-threaded Engine:
// exactly one Proc runs at any instant, and it switches back to the Engine
// whenever it sleeps or blocks on a synchronization primitive. Events
// with equal timestamps fire in the order they were scheduled (a strictly
// increasing sequence number breaks ties), so a simulation is a pure function
// of its inputs.
//
// The package provides a few structured primitives on top of the engine:
// WaitGroup, Latch, Resource (counting semaphore with FIFO wakeup), and
// Tokens (a count handed from stage to stage, optionally bounded, so a put
// waits for room as a send on a buffered Go channel waits). They block in
// virtual time rather than real time.
//
// # Dispatch fast path
//
// Blocking is what a Proc's coroutine buys; leaf work that never blocks can
// skip the coroutine entirely. Engine.At and Engine.After schedule a bare
// callback that the dispatch loop runs inline — no switch, roughly 7x
// cheaper per event — under the same (time, seq) ordering as process
// wakeups. Callbacks may Spawn, fire latches, put tokens and take
// resources with AcquireAsync, but must not block, and SetTrace does not
// report them (they are not resumptions). Internally the engine keeps
// pending events in an allocation-free 4-ary heap of concrete values,
// dispatches all events sharing an instant as one batch, and recycles
// finished processes' IDs through a free list and their coroutines through
// an idle list, which every Run empties before it returns. Stats reports
// event and callback counts, live/spawned processes and wall-clock dispatch
// throughput; the perf baseline (BENCH_perf.json) records the deterministic
// counts of each of its runs, and `make bench-sim` times both dispatch
// paths.
package sim
