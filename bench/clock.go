package main

import (
	"math"
	"sort"
	"time"
)

// A clock rescales host time to a reference machine speed. On the shared
// 2-vCPU x86-64 host the benchmark was built on, memory-bound code slowed
// by up to 80% in bursts of a few seconds, and drifted over minutes, while
// an ALU-only loop did not slow at all; the toolchain is memory-bound, so
// raw times of identical runs spread 10-25%. The clock times a fixed
// memory-bound loop (random reads and writes over a table larger than the
// per-core caches) around every measured interval and multiplies the
// interval by calRef over the loop's median time near it. The loop is
// benchmark code, so a change to the toolchain moves rescaled times
// exactly as it moves raw ones.
type clock struct {
	table   []uint32
	samples []calSample
	last    time.Time
}

type calSample struct {
	at time.Time
	d  time.Duration
}

const (
	// calTableWords sizes the table at 2 MiB: past the per-core caches.
	// A 16 MiB table's timing drifted by 2x within one run while the
	// toolchain's did not.
	calTableWords = 1 << 19
	// calSteps is one run's length.
	calSteps = 100_000
	// calRef is a sample's typical time on the reference machine (2 vCPUs
	// of a shared x86-64 host, Go 1.24), so rescaled times read as that
	// machine's milliseconds when it is not contended.
	calRef = 330 * time.Microsecond
	// calEvery is the most time between samples while ops run.
	calEvery = 100 * time.Millisecond
	// calWindow is how far outside an interval its samples may lie.
	calWindow = 500 * time.Millisecond
)

func newClock() *clock { return &clock{table: make([]uint32, calTableWords)} }

// sample times the calibration loop. A sample is the fastest of three
// runs, so a garbage collection the toolchain left running on the other
// core does not count as machine slowness; a burst of contention lasting
// seconds slows all three.
func (c *clock) sample() {
	at := time.Now()
	best := time.Duration(math.MaxInt64)
	x, s := uint32(2463534242), uint32(0)
	for k := 0; k < 3; k++ {
		t := time.Now()
		for i := 0; i < calSteps; i++ {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			s += c.table[x&(calTableWords-1)]
			c.table[(x>>3)&(calTableWords-1)] = s
		}
		best = min(best, time.Since(t))
	}
	c.last = time.Now()
	c.samples = append(c.samples, calSample{at: at, d: best})
}

// tick samples when the last sample is more than calEvery old.
func (c *clock) tick() {
	if time.Since(c.last) >= calEvery {
		c.sample()
	}
}

// interval is one measured span of host time.
type interval struct {
	end time.Time
	d   time.Duration
}

// scale is the factor taking host time spent in the interval to reference
// time: calRef over the median sample within calWindow of the interval.
func (c *clock) scale(iv interval) float64 {
	lo, hi := iv.end.Add(-iv.d-calWindow), iv.end.Add(calWindow)
	i := sort.Search(len(c.samples), func(i int) bool { return !c.samples[i].at.Before(lo) })
	var ds []float64
	for ; i < len(c.samples) && !c.samples[i].at.After(hi); i++ {
		ds = append(ds, float64(c.samples[i].d))
	}
	if len(ds) == 0 {
		return 1
	}
	return float64(calRef) / median(ds)
}

// ref rescales the interval to reference seconds.
func (c *clock) ref(iv interval) float64 { return iv.d.Seconds() * c.scale(iv) }
