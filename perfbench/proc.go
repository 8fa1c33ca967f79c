package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark reads its clocks and memory high-water mark from Linux.

// Clock ids of clock_gettime(2).
const (
	clockProcessCPUTimeID = 2
	clockThreadCPUTimeID  = 3
)

// cpuTime returns the CPU time (user plus system, every thread) the
// process has used so far.
func cpuTime() time.Duration { return clockTime(clockProcessCPUTimeID) }

// threadCPUTime returns the CPU time the calling OS thread has used.
func threadCPUTime() time.Duration { return clockTime(clockThreadCPUTimeID) }

// clockTime reads a nanosecond CPU clock. Linux supports both ids since
// 2.6.12, so the call cannot fail there; a failure would read as 0.
func clockTime(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// resetPeakRSS restarts the kernel's peak-RSS mark (VmHWM) from the
// current resident size. Where the kernel does not support it, the mark
// keeps the process-wide peak, which only makes peak_rss_mb larger.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: see above
}

// peakRSSMiB returns the peak resident set size (VmHWM) since the last
// reset, or 0 where /proc is unavailable.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 || fields[0] != "VmHWM:" {
			continue
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
