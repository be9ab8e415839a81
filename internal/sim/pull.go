//go:build go1.23

package sim

import "iter"

// pull starts seq as a coroutine: next runs it up to its next yield and
// stop ends it, each a direct switch on the calling thread with no trip
// through the goroutine scheduler.
func pull(seq iter.Seq[yieldKind]) (next func() (yieldKind, bool), stop func()) {
	return iter.Pull(seq)
}
