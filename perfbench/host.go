package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed drifts. On a shared 2-vCPU virtual machine two things
// move every wall-clock figure of a run together, in phases lasting from
// seconds to minutes: the hypervisor steals CPU time (the vCPU does not
// run at all), and neighbours on the same physical core and caches make
// every instruction slower while it does run. Between runs of the same
// code they moved the medians of a run by up to 40%.
//
// A meter therefore samples the host all through an untraced run, every
// meterPeriod, on a thread of its own:
//   - the CPU time a fixed reference loop takes, sharing no code with the
//     programs under test. Thread CPU time excludes stolen time and time
//     spent waiting for a CPU, so it measures how fast instructions run;
//   - the stolen and the busy CPU time of the whole machine, from
//     /proc/stat.
//
// Every end-to-end time is then reported as its wall-clock length less
// the CPU time stolen from it, multiplied by refNominal over the
// reference loop's lower-quartile time around it. A stolen second delays
// a program by a second when one of its threads is runnable, and by half
// that when two are (the stolen time is summed over CPUs), so the share
// of a wall time taken out is the stolen CPU time around it over the
// larger of the elapsed time and the busy CPU time. The quartile, not
// the median, because a loop the hypervisor interrupts comes back to cold
// caches and runs slow: that is stolen time, already taken out. On an
// idle host both corrections are close to 1 and the figures are plain
// wall-clock values.

// refNominal is about refOnce's lower-quartile CPU time on an idle host.
const refNominal = 1000 * time.Microsecond

// meterPeriod is how often the meter samples the host.
const meterPeriod = 50 * time.Millisecond

// meterMargin widens the interval whose samples correct a time, and
// meterMinSamples is the fewest samples a correction rests on: /proc/stat
// counts in 10 ms ticks, and single reference timings are noisy.
const (
	meterMargin     = time.Second
	meterMinSamples = 20
)

// hostSample is one reading of the host.
type hostSample struct {
	at          time.Time
	ref         time.Duration // refOnce's thread CPU time
	busy, steal float64       // /proc/stat ticks summed over CPUs; busy includes steal
}

// meter samples the host until it is closed.
type meter struct {
	mu      sync.Mutex
	samples []hostSample
	stop    chan struct{}
	done    chan struct{}
}

func startMeter() *meter {
	m := &meter{stop: make(chan struct{}), done: make(chan struct{})}
	go m.run()
	return m
}

func (m *meter) run() {
	defer close(m.done)
	// Thread CPU time is that of the calling thread: keep the loop on one.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	buf := make([]float64, 1<<15)
	tick := time.NewTicker(meterPeriod)
	defer tick.Stop()
	for {
		s := hostSample{ref: refOnce(buf)}
		s.busy, s.steal = cpuTicks()
		s.at = time.Now()
		m.mu.Lock()
		m.samples = append(m.samples, s)
		m.mu.Unlock()
		select {
		case <-m.stop:
			return
		case <-tick.C:
		}
	}
}

// close stops the sampling and waits for it to end.
func (m *meter) close() {
	close(m.stop)
	<-m.done
}

// effective is the length of [a, b] on an idle host: its wall-clock
// length, less the CPU time stolen from it, scaled by the reference
// loop's speed around it.
func (m *meter) effective(a, b time.Time) time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return correct(m.samples, a, b)
}

// correct applies the host corrections of samples (in time order) to the
// interval [a, b]. The samples used are those within meterMargin of it,
// widened sample by sample on both sides to at least meterMinSamples.
func correct(samples []hostSample, a, b time.Time) time.Duration {
	d := b.Sub(a)
	if len(samples) == 0 {
		return d
	}
	lo := sort.Search(len(samples), func(i int) bool { return !samples[i].at.Before(a.Add(-meterMargin)) })
	hi := sort.Search(len(samples), func(i int) bool { return samples[i].at.After(b.Add(meterMargin)) })
	for hi-lo < meterMinSamples && (lo > 0 || hi < len(samples)) {
		if lo > 0 {
			lo--
		}
		if hi < len(samples) {
			hi++
		}
	}
	win := samples[lo:hi]
	if len(win) == 0 {
		return d
	}
	stolen, speed := corrections(win)
	return time.Duration(float64(d) * (1 - stolen) * speed)
}

// corrections returns, over samples in time order, the share of elapsed
// time stolen from a program and the reference loop's speed factor.
func corrections(samples []hostSample) (stolen, speed float64) {
	refs := make([]float64, len(samples))
	for i, s := range samples {
		refs[i] = float64(s.ref)
	}
	speed = float64(refNominal) / percentile(refs, 25)
	first, last := samples[0], samples[len(samples)-1]
	elapsed := last.at.Sub(first.at).Seconds() * userHZ
	if base := max(elapsed, last.busy-first.busy); base > 0 {
		stolen = (last.steal - first.steal) / base
	}
	return stolen, speed
}

// summary is the corrections over the whole run, for its notes.
func (m *meter) summary() (stolen, speed float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.samples) == 0 {
		return 0, 1
	}
	return corrections(m.samples)
}

var refSink float64

// refOnce runs the reference loop once over buf, floating-point and
// integer arithmetic over 256 KiB, and returns the thread CPU time it
// took: about 1 ms on an idle host. A first, untimed pass brings buf back
// into the CPU's caches, which the programs under test evict between
// samples when they keep every CPU busy; timing it would make the loop's
// speed depend on how busy the benchmark keeps the machine.
func refOnce(buf []float64) time.Duration {
	var start time.Duration
	x := 1.0
	var h uint64 = 1469598103934665603
	for r := 0; r <= 10; r++ {
		if r == 1 {
			start = threadCPU()
		}
		for i := range buf {
			x = x*0.9999999 + float64(i&7)
			buf[(i*7)&(len(buf)-1)] += x
			h = (h ^ uint64(i)) * 1099511628211
		}
	}
	refSink += x + float64(h&1) + buf[3]
	return threadCPU() - start
}

// threadCPU is the CPU time the calling thread has used.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// userHZ is the rate of /proc/stat's ticks, per CPU.
const userHZ = 100

// cpuTicks reads the machine's busy and stolen CPU time from the first
// line of /proc/stat, in ticks summed over its CPUs. Busy is every column
// but idle and iowait, steal included. Both are 0 where the file is
// unreadable, which turns the steal correction off.
func cpuTicks() (busy, steal float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// Columns: user nice system idle iowait irq softirq steal ...
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return 0, 0
		}
		if i != 4 && i != 5 {
			busy += v
		}
		if i == 8 {
			steal = v
		}
	}
	return busy, steal
}
