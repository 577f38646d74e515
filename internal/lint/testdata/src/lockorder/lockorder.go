// Fixture for the lockorder analyzer: the module-wide lock-order graph
// must be acyclic. Mutexes are keyed by field identity, so every
// instance of a struct shares one node.
package lockorder

import "sync"

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }

var a A
var b B

// ab acquires A.mu then B.mu; ba inverts the order. Together they form
// the classic two-lock deadlock, reported once at the smallest key's
// witness (the second acquisition inside ab).
func ab() {
	a.mu.Lock()
	b.mu.Lock() // want `potential deadlock: lock-order cycle fixture/lockorder\.A\.mu -> fixture/lockorder\.B\.mu -> fixture/lockorder\.A\.mu`
	b.mu.Unlock()
	a.mu.Unlock()
}

func ba() {
	b.mu.Lock()
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Unlock()
}

type C struct{ mu sync.Mutex }
type D struct{ mu sync.Mutex }

var c C
var d D

// cd holds C.mu across a call that transitively acquires D.mu; dc does
// the inverse through its own helper. The cycle is interprocedural on
// both edges and the witness names the call chain.
func cd() {
	c.mu.Lock()
	lockD() // want `potential deadlock: lock-order cycle fixture/lockorder\.C\.mu -> fixture/lockorder\.D\.mu -> fixture/lockorder\.C\.mu .*via lockorder\.lockD`
	c.mu.Unlock()
}

func lockD() {
	d.mu.Lock()
	d.mu.Unlock()
}

func dc() {
	d.mu.Lock()
	defer d.mu.Unlock()
	lockC()
}

func lockC() {
	c.mu.Lock()
	c.mu.Unlock()
}

type E struct{ mu sync.Mutex }

var e E

// relock holds E.mu across a helper that acquires E.mu again — a
// self-cycle on the identity key (another E instance would deadlock the
// same way the moment the two are the same object).
func relock() {
	e.mu.Lock()
	again() // want `potential deadlock: lockorder\.relock relocks fixture/lockorder\.E\.mu already held`
	e.mu.Unlock()
}

func again() {
	e.mu.Lock()
	e.mu.Unlock()
}

type F struct{ mu sync.Mutex }
type G struct{ mu sync.Mutex }

var fv F
var gv G

// nested is a consistent order used twice: F.mu before G.mu everywhere
// produces edges but no cycle — silent.
func nested() {
	fv.mu.Lock()
	gv.mu.Lock()
	gv.mu.Unlock()
	fv.mu.Unlock()
}

func nestedAgain() {
	fv.mu.Lock()
	defer fv.mu.Unlock()
	gv.mu.Lock()
	gv.mu.Unlock()
}

type P struct{ mu sync.Mutex }
type Q struct{ mu sync.Mutex }

var pv P
var qv Q

// pq acquires Q.mu under P.mu only inside an else-if branch; qp inverts
// the order. The walk must descend the chain to see the P -> Q edge.
func pq(first, second bool) {
	pv.mu.Lock()
	defer pv.mu.Unlock()
	if first {
		return
	} else if second {
		qv.mu.Lock() // want `potential deadlock: lock-order cycle fixture/lockorder\.P\.mu -> fixture/lockorder\.Q\.mu -> fixture/lockorder\.P\.mu`
		qv.mu.Unlock()
	}
}

func qp() {
	qv.mu.Lock()
	pv.mu.Lock()
	pv.mu.Unlock()
	qv.mu.Unlock()
}

// localOnly locks a local mutex: no stable identity, skipped.
func localOnly() {
	var mu sync.Mutex
	mu.Lock()
	gv.mu.Lock()
	gv.mu.Unlock()
	mu.Unlock()
}
