// Fixture for the lockblock analyzer: no blocking operation — channel
// send/receive, select without default, net.Conn I/O (direct or one call
// away), Accelerator.Run, Launcher.Launch, or a call into a lock-taking
// method — while a mutex is held.
package lockblk

import (
	"net"
	"sync"
)

type Accelerator interface {
	Run(x int) int
}

type Launcher interface {
	Accelerator
	Launch(xs []int) int
}

type srv struct {
	mu   sync.Mutex
	ch   chan int
	conn net.Conn
	acc  Accelerator
	l    Launcher
	n    int
}

// Flagged: a channel send inside the critical section can park the holder.
func sendHeld(s *srv) {
	s.mu.Lock()
	s.ch <- 1 // want "channel send while holding s.mu"
	s.mu.Unlock()
}

// Flagged: so can a receive.
func recvHeld(s *srv) int {
	s.mu.Lock()
	v := <-s.ch // want "channel receive while holding s.mu"
	s.mu.Unlock()
	return v
}

// Flagged: a select with no default case blocks until a peer is ready.
func selectHeld(s *srv) {
	s.mu.Lock()
	select { // want "select without a default case while holding s.mu"
	case v := <-s.ch:
		s.n = v
	}
	s.mu.Unlock()
}

// Flagged: socket I/O under the lock stalls every peer behind one conn.
func connWriteHeld(s *srv, buf []byte) {
	s.mu.Lock()
	s.conn.Write(buf) // want "net.Conn I/O while holding s.mu"
	s.mu.Unlock()
}

// write wraps the socket write, putting it one call away.
func write(c net.Conn, buf []byte) error {
	_, err := c.Write(buf)
	return err
}

// Flagged: socket I/O one call away is still socket I/O under the lock.
func connWriteViaHelper(s *srv, buf []byte) {
	s.mu.Lock()
	write(s.conn, buf) // want "net.Conn I/O via write while holding s.mu"
	s.mu.Unlock()
}

// Flagged: accelerator inference is the latency budget itself.
func runHeld(s *srv, x int) int {
	s.mu.Lock()
	v := s.acc.Run(x) // want "Accelerator.Run while holding s.mu"
	s.mu.Unlock()
	return v
}

// Flagged: so is a launch, one job or a gathered batch.
func launchHeld(s *srv, xs []int) int {
	s.mu.Lock()
	v := s.l.Launch(xs) // want "Launcher.Launch while holding s.mu"
	s.mu.Unlock()
	return v
}

// lockedTouch takes the lock itself: calling it with the lock already held
// is a self-deadlock.
func lockedTouch(s *srv) {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}

// Flagged: a call into a lock-taking function while the lock is held.
func nestedCall(s *srv) {
	s.mu.Lock()
	lockedTouch(s) // want "call into lockedTouch, which takes a lock"
	s.mu.Unlock()
}

// Suppressed: a buffered single-sender completion channel cannot block.
func reviewedSend(s *srv) {
	s.mu.Lock()
	//edgeis:lockheld ch is buffered and this is its only sender
	s.ch <- 1
	s.mu.Unlock()
}

// Guard: a select with a default case never parks.
func selectDefault(s *srv) {
	s.mu.Lock()
	select {
	case s.ch <- 1:
	default:
		s.n++
	}
	s.mu.Unlock()
}

// Guard: the blocking operation happens after the unlock.
func sendAfterUnlock(s *srv) {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	s.ch <- s.n
}

// Guard: sync.Cond.Wait releases the mutex while parked; waiting on a
// condition under its own lock is the intended use.
func condWait(s *srv, c *sync.Cond) {
	s.mu.Lock()
	for s.n == 0 {
		c.Wait()
	}
	s.mu.Unlock()
}

// Guard: deferred calls run after the deferred unlock below them on the
// defer stack, so deferring a lock-taking call is not a lock-held call.
func deferNested(s *srv) {
	s.mu.Lock()
	defer lockedTouch(s)
	defer s.mu.Unlock()
	s.n++
}
