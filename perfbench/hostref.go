package main

import (
	"math/rand"
	"time"
)

// The host reference is a fixed piece of work owned by the benchmark,
// timed between answers while the system under test is idle. It
// evaluates a random bit-parallel circuit: indirect loads, integer logic
// and a data-dependent switch, the same mix as the simulators' inner
// loops. Because it shares no code with the program, an optimization of
// the program never moves it, while a host that is slower for a while
// (frequency, steal, cache contention from neighbours) slows it and the
// answers alike.
//
// The circuit's 4.5 MB of tables are larger than a core's private
// caches, so neighbours contending for the shared cache slow it as they
// slow the answers: with a 16k-gate circuit that fitted in L2, the
// normalized medians of two passes in one process still differed by up
// to 8%. One measurement is refPasses passes, about 15 ms.
const (
	refGates  = 1 << 18
	refInputs = 64
	refPasses = 4
)

type refCircuit struct {
	typ  []uint8
	a, b []int32
	v    []uint64
}

func newRefCircuit(seed int64) *refCircuit {
	rng := rand.New(rand.NewSource(seed))
	c := &refCircuit{
		typ: make([]uint8, refGates),
		a:   make([]int32, refGates),
		b:   make([]int32, refGates),
		v:   make([]uint64, refGates),
	}
	for i := refInputs; i < refGates; i++ {
		c.typ[i] = uint8(rng.Intn(4))
		c.a[i] = int32(rng.Intn(i))
		c.b[i] = int32(i - 1 - rng.Intn(min(i, 64)))
	}
	for i := 0; i < refInputs; i++ {
		c.v[i] = rng.Uint64()
	}
	return c
}

// run evaluates the circuit once on new inputs and returns the last
// gate's value so the work cannot be optimized away.
func (c *refCircuit) run() uint64 {
	for i := 0; i < refInputs; i++ {
		c.v[i] = c.v[i]*6364136223846793005 + 1442695040888963407
	}
	for i := refInputs; i < refGates; i++ {
		x, y := c.v[c.a[i]], c.v[c.b[i]]
		switch c.typ[i] {
		case 0:
			c.v[i] = x & y
		case 1:
			c.v[i] = x | y
		case 2:
			c.v[i] = x ^ y
		default:
			c.v[i] = ^(x & y)
		}
	}
	return c.v[refGates-1]
}

// hostRef times the reference kernel on one thread, as many as an
// in-process answer keeps busy.
type hostRef struct {
	circuit *refCircuit
	sink    uint64
}

func newHostRef() *hostRef {
	h := &hostRef{circuit: newRefCircuit(1)}
	h.measure() // first touch of the tables is not host speed
	return h
}

// measure runs refPasses passes and returns the wall time in
// milliseconds.
func (h *hostRef) measure() float64 {
	t0 := time.Now()
	for p := 0; p < refPasses; p++ {
		h.sink ^= h.circuit.run()
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}
