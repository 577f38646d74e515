// Package lockheld exercises the no-blocking-under-mutex contract:
// critical sections must not park the goroutine or call into unknown
// code.
package lockheld

import (
	"sync"
	"time"
)

type server struct {
	mu    sync.Mutex
	calls int
	fn    func()
}

// Direct violations: a blocking leaf, a channel operation, and a call
// into a caller-supplied function value, all inside Lock..Unlock.
func (s *server) bad(ch chan int) {
	s.mu.Lock()
	time.Sleep(time.Second) // want `blocking call time.Sleep while s.mu is held`
	ch <- 1                 // want `channel operation while s.mu is held`
	s.fn()                  // want `call into caller-supplied function fn while s.mu is held`
	s.mu.Unlock()
}

// Transitive violation through a helper under defer-unlock.
func (s *server) deferred() {
	s.mu.Lock()
	defer s.mu.Unlock()
	sleepHelper() // want `call to lockheld.sleepHelper while s.mu is held; it can block \(lockheld.sleepHelper → time.Sleep\)`
}

func sleepHelper() {
	time.Sleep(time.Millisecond)
}

// Blocking after the unlock is legal.
func (s *server) good(ch chan int) {
	s.mu.Lock()
	s.calls++
	s.mu.Unlock()
	ch <- 1
	time.Sleep(time.Millisecond)
}

// Re-locking a mutex already held by this function is a self-deadlock.
func (s *server) relock() {
	s.mu.Lock()
	s.mu.Lock() // want `s.mu is locked again while already held; self-deadlock`
	s.mu.Unlock()
	s.mu.Unlock()
}

// The held set flows into nested statement lists.
func (s *server) nested(cond bool, ch chan int) {
	s.mu.Lock()
	if cond {
		ch <- 1 // want `channel operation while s.mu is held`
	}
	s.mu.Unlock()
}

// ... and through every branch of an else-if chain, not just the first
// body and a final else block.
func (s *server) elseIf(a, b bool, ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if a {
		s.calls++
	} else if b {
		ch <- 1 // want `channel operation while s.mu is held`
	}
}

// Labeled statements and select clauses carry statement lists like any
// other: a release inside the labeled loop is seen, and a clause body
// runs under whatever its select ran under.
func (s *server) labeled(ch chan int) {
	s.mu.Lock()
drain:
	for {
		s.mu.Unlock()
		ch <- 1
		break drain
	}
}

func (s *server) selects(done chan int) {
	s.mu.Lock()
	select { // want `channel operation while s.mu is held`
	case <-done: // want `channel operation while s.mu is held`
		time.Sleep(time.Millisecond) // want `blocking call time.Sleep while s.mu is held`
	}
	s.mu.Unlock()
}

// A select with a default under the lock is a poll: legal.
func (s *server) poll(ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case ch <- s.calls:
	default:
	}
}

// Goroutine joins under a lock are the textbook deadlock shape.
func (s *server) waits(wg *sync.WaitGroup) {
	s.mu.Lock()
	defer s.mu.Unlock()
	wg.Wait() // want `blocking call sync.WaitGroup.Wait while s.mu is held`
}

// Pure in-memory reads under an RWMutex are what locks are for.
type cache struct {
	mu sync.RWMutex
	m  map[string]int
}

func (c *cache) get(k string) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.m[k]
}
