package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPU is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPU = 2

// processCPU returns the CPU time all of the process's threads have
// used so far. The end-to-end timings are taken on this clock rather
// than the wall clock: with paravirtual steal accounting, Linux leaves
// the time a virtual CPU spends descheduled by its host out of it, and
// it does not count time a thread waits behind other processes either.
// On a shared host those waits move wall-clock figures by a third from
// one minute to the next.
func processCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPU, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// cost is what one operation took on the wall clock and on the
// process's CPU clock.
type cost struct{ wall, cpu time.Duration }

// stopwatch reads both clocks at the start of an operation.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), processCPU()} }

func (s stopwatch) elapsed() cost {
	cpu := processCPU()
	return cost{time.Since(s.wall), cpu - s.cpu}
}
