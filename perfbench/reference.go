package main

// The reference kernel. The benchmark shares a host whose memory system is
// also used by other tenants, and that contention moves the simulator's
// host time by ±20% over minutes while the simulated work stays the same.
// A memory-bound loop moves with it (correlation 0.75–0.88 per fig14-mail
// cell), so the timed end-to-end metrics divide each operation's host time
// by the time of this fixed kernel, run just before and just after the
// operation.
// The kernel's code and buffer are the benchmark's own and never change
// with the program under test, so a program change that costs more host
// time raises the ratio by the same factor as the seconds.

import (
	"syscall"
	"time"
	"unsafe"
)

// refWords is the reference buffer's size in 8-byte words (32 MB): far
// larger than a core's private caches, so the kernel's updates go to the
// shared L3 and, when other tenants crowd it, to DRAM, the levels the
// simulator's heap lives in.
const refWords = 4 << 20

// refBuf lives outside the Go heap, so it is not part of live_heap_mb and
// the garbage collector never scans or moves it.
var refBuf []uint64

// refSink keeps the kernel's result observable.
var refSink uint64

// refKernel runs the reference kernel once (about 70 ms) and returns its
// host time: 3M random read-modify-writes over the buffer, then 20 copies
// of one half of it onto the other.
func refKernel() time.Duration {
	if refBuf == nil {
		mem, err := syscall.Mmap(-1, 0, refWords*8, syscall.PROT_READ|syscall.PROT_WRITE,
			syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			panic("perfbench: reference buffer: " + err.Error())
		}
		refBuf = unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), refWords)
		for i := range refBuf {
			refBuf[i] = uint64(i)
		}
	}
	t := time.Now()
	x := uint64(1)
	for i := 0; i < 3_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		refBuf[(x>>20)%refWords] += x
	}
	for k := 0; k < 20; k++ {
		copy(refBuf[:refWords/2], refBuf[refWords/2:])
	}
	refSink += refBuf[7]
	return time.Since(t)
}

// refTimer times a sequence of operations in reference units: each
// operation's host time divided by the mean of the kernel's time just
// before and just after it.
type refTimer struct {
	last time.Duration // the kernel's latest time
	refs []time.Duration
}

func newRefTimer() *refTimer {
	return &refTimer{last: refKernel()}
}

// scale runs the kernel after an operation and returns the factor that
// converts the operation's host time into reference units.
func (r *refTimer) scale() float64 {
	next := refKernel()
	f := 2 / (r.last + next).Seconds()
	r.refs = append(r.refs, next)
	r.last = next
	return f
}
