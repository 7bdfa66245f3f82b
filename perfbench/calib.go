package main

import (
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration. The benchmark's host is shared: other tenants
// contend for its caches, memory and allocator, and its speed drifts by
// tens of percent over seconds to minutes. A run therefore times a fixed
// loop around every pass of the workload and scales its host times to a
// reference host speed: a figure is what it would have been had the loop
// taken calibRef per chunk throughout. The loop lives in the benchmark, so
// a change to the simulator does not change it. It allocates small linked
// objects, as the simulator does; NOTES.md gives the measurements behind
// this choice.

const (
	// calibChunks is how many chunks run just before and just after each
	// pass: about a tenth of a pass's time on each side.
	calibChunks = 10
	// calibOps is the number of objects one calibration chunk allocates.
	calibOps = 175_000
	// calibRef is one chunk's time on a quiet 2-core Intel Xeon VM
	// (go1.24): the speed every host time is scaled to.
	calibRef = 8 * time.Millisecond
)

// calibNode is the loop's object: a pointer and a few words.
type calibNode struct {
	next *calibNode
	v    [6]uint64
}

// calibSink keeps the loop's result live.
var calibSink atomic.Uint64

// calibChunk runs one chunk of the calibration loop: it links calibOps
// fresh objects into a list and drops the list every thousand, so the
// live heap stays small and constant.
func calibChunk() {
	var head *calibNode
	var sum uint64
	for i := 0; i < calibOps; i++ {
		head = &calibNode{next: head}
		head.v[0] = uint64(i)
		if i%1000 == 999 {
			sum += head.next.v[0]
			head = nil
		}
	}
	calibSink.Add(sum)
}

// calib is the calibration measured around one pass.
type calib struct {
	Chunks int
	Took   time.Duration
}

// run collects the garbage left so far, so that no earlier work is
// charged to the loop, and times n chunks of the calibration loop.
func (c *calib) run(n int) {
	runtime.GC()
	c.time(n)
}

// runPerCPU is run for a workload that keeps every core busy: it times n
// chunks on each CPU the process may use in turn, pinned there, since
// other tenants may slow one core more than another. Running them at once
// instead made the allocator's footprint, and so peak_rss_mb, jump. Where
// the thread cannot be pinned it falls back to run.
func (c *calib) runPerCPU(n int) {
	runtime.GC()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var all cpuSet
	if all.get() != nil || len(all.cpus()) < 2 {
		c.time(n)
		return
	}
	defer all.set()
	for _, cpu := range all.cpus() {
		var one cpuSet
		one[cpu/64] |= 1 << (cpu % 64)
		if one.set() != nil {
			c.time(n)
			return
		}
		c.time(n)
	}
}

func (c *calib) time(n int) {
	t := time.Now()
	for i := 0; i < n; i++ {
		calibChunk()
	}
	c.Chunks += n
	c.Took += time.Since(t)
}

// cpuSet is a Linux CPU affinity mask for the calling thread.
type cpuSet [16]uint64

func (s *cpuSet) get() error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(*s), uintptr(unsafe.Pointer(s)))
	if e != 0 {
		return e
	}
	return nil
}

func (s *cpuSet) set() error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(*s), uintptr(unsafe.Pointer(s)))
	if e != 0 {
		return e
	}
	return nil
}

func (s *cpuSet) cpus() []int {
	var out []int
	for i := 0; i < len(s)*64; i++ {
		if s[i/64]&(1<<(i%64)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// speed is the host's speed during the pass relative to the reference;
// host time multiplied by it is host time at the reference speed.
func (c calib) speed() float64 {
	if c.Took == 0 {
		return 1
	}
	return float64(calibRef) * float64(c.Chunks) / float64(c.Took)
}
