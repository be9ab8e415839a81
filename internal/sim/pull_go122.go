//go:build !go1.23

package sim

// pull is the stand-in for iter.Pull on toolchains before go1.23: the same
// next/stop contract on a goroutine, with two channel handoffs per switch.
// It covers only the engine's use: seq returns only after its yield
// reports false, and stop is called once, on a coroutine suspended in
// yield.
func pull(seq func(yield func(yieldKind) bool)) (next func() (yieldKind, bool), stop func()) {
	resume := make(chan bool) // true: run on; false: stop
	out := make(chan yieldKind)
	go func() {
		if <-resume {
			seq(func(k yieldKind) bool {
				out <- k
				return <-resume
			})
		}
		close(out)
	}()
	next = func() (yieldKind, bool) {
		resume <- true
		k, ok := <-out
		return k, ok
	}
	stop = func() {
		resume <- false
		<-out
	}
	return next, stop
}
