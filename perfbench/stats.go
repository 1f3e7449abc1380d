package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified). Empty input
// yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// memProbe tracks cumulative allocation and peak heap while a timed run is
// in progress. It samples runtime/metrics, which does not stop the world.
type memProbe struct {
	allocs0 uint64
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

const (
	metricAllocs = "/gc/heap/allocs:bytes"
	metricHeap   = "/memory/classes/heap/objects:bytes"
)

// heapSampleEvery is the heap sampling period; short enough to see the peak
// just before a collection on graphs that take tens of milliseconds.
const heapSampleEvery = 2 * time.Millisecond

func readMem() (allocs, heap uint64) {
	s := []metrics.Sample{{Name: metricAllocs}, {Name: metricHeap}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// startMemProbe collects garbage, then starts the heap sampler.
func startMemProbe() *memProbe {
	runtime.GC()
	p := &memProbe{stop: make(chan struct{}), done: make(chan struct{})}
	var h uint64
	p.allocs0, h = readMem()
	p.samples = append(p.samples, float64(h))
	go func() {
		defer close(p.done)
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				_, h := readMem()
				p.samples = append(p.samples, float64(h))
			}
		}
	}()
	return p
}

// finish stops the sampler and returns the bytes allocated since start and
// the peak heap, taken as the 99th percentile of the samples so that one
// sample landing just before a collection does not set it alone.
func (p *memProbe) finish() (allocated uint64, peak float64) {
	close(p.stop)
	<-p.done
	a, h := readMem()
	p.samples = append(p.samples, float64(h))
	return a - p.allocs0, quantile(p.samples, 0.99)
}

// timeSetup runs build `repeats` times and returns the last value built and
// the median set-up time. Each earlier value is released, and its garbage
// collected, before the next build starts, so every build starts from the
// same heap.
func timeSetup[T any](repeats int, build func() (T, error), release func(T)) (T, float64, error) {
	var v T
	var times []float64
	for i := 0; i < repeats; i++ {
		if i > 0 {
			release(v)
		}
		runtime.GC()
		start := time.Now()
		nv, err := build()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		v = nv
	}
	return v, quantile(times, 0.5), nil
}

// setupRepeats is how many times the dag workloads' set-up runs per
// process; its median is setup_s. The service workload's set-up takes tens
// of milliseconds, so it runs serviceSetupRepeats times for a steady median.
const (
	setupRepeats        = 5
	serviceSetupRepeats = 15
)

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
