package main

import (
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// calibrationRefS is the time the calibration kernel takes on the
// reference machine: this box, undisturbed. Wall-clock end-to-end
// metrics are reported in reference-machine seconds — measured seconds
// times calibrationRefS over the kernel's measured time next to the
// operation. The box is shared: identical sessions took 1.4 to 2.6 s
// within ten minutes, in phases minutes long, so a run's raw median
// moves by ±15% with no change to the code. The kernel slows down with
// the machine (correlation 0.7 with session time) and normalising by it
// took the run-to-run spread of a median session time from 15% to 5%.
const calibrationRefS = 0.100

// calibrate times a fixed computation that shares nothing with the
// repository — so no change to the program can move it — and has the
// program's mix: float64 multiply-accumulate loops, a string-keyed map,
// a sort and a burst of small allocations, first on every core at once
// (a session's fan-outs) and then on one (its serial path).
func calibrate() float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		//pruner:allow rawgo — the calibration kernel must not depend on the repository's own pool; joined by wg before the clock is read
		go func() {
			defer wg.Done()
			calibrationKernel(3)
		}()
	}
	wg.Wait()
	calibrationKernel(3)
	return time.Since(t0).Seconds()
}

// calibrationSink keeps the kernel's results live.
var calibrationSink struct {
	sync.Mutex
	v float64
}

func calibrationKernel(reps int) {
	const n = 96
	a, b, c := make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
	for i := range a {
		a[i], b[i] = float64(i%7)*0.5, float64(i%5)*0.25
	}
	var sum float64
	for ; reps > 0; reps-- {
		for rep := 0; rep < 6; rep++ {
			for i := 0; i < n; i++ {
				for k := 0; k < n; k++ {
					aik := a[i*n+k]
					for j := 0; j < n; j++ {
						c[i*n+j] += aik * b[k*n+j]
					}
				}
			}
		}
		m := map[string]int{}
		for i := 0; i < 20000; i++ {
			m["s["+strconv.Itoa(i%4096)+" "+strconv.Itoa(i%13)+"]"] += i
		}
		x := uint64(12345)
		vals := make([]float64, 30000)
		for i := range vals {
			x = x*6364136223846793005 + 1442695040888963407
			vals[i] = float64(x >> 11)
		}
		sort.Float64s(vals)
		rows := make([][]float64, 3000)
		for i := range rows {
			rows[i] = make([]float64, 164)
		}
		sum += c[5] + vals[7] + float64(len(m)+len(rows))
	}
	calibrationSink.Lock()
	calibrationSink.v += sum
	calibrationSink.Unlock()
}
