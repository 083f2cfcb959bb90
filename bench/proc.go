package main

import (
	"bytes"
	"fmt"
	"math/bits"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// Host-side accounting of the process under test: CPU time (wall time
// can hide a sharded run burning two cores) and peak resident memory.
// In-process workloads account the benchmark process itself; the sweeps
// account the simd child through /proc.

// selfCPU returns the user+system CPU time this process has consumed.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// fields. It is 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// parseStatCPU extracts utime+stime from the text of /proc/<pid>/stat.
// The comm field may contain spaces and parentheses, so fields are
// counted from the last ')'.
func parseStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed stat line %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// After the comm field: state is f[0], so utime (field 14) is f[11]
	// and stime (field 15) is f[12].
	if len(f) < 13 {
		return 0, fmt.Errorf("short stat line %q", stat)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("non-numeric CPU fields in %q", stat)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// pidCPU returns the user+system CPU time of process pid.
func pidCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// parseVmHWM extracts the peak resident set size, in MB, from the text
// of /proc/<pid>/status.
func parseVmHWM(status []byte) (float64, error) {
	for _, line := range bytes.Split(status, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte("VmHWM:"))
		if !ok {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) != 2 || string(f[1]) != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseFloat(string(f[0]), 64)
		if err != nil {
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM line")
}

// peakRSSMB returns VmHWM of process pid (0 = this process) in MB.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return parseVmHWM(b)
}

// walkArena is the calibration walk's working set: 16 MB, larger than a
// private cache, so the walk's time follows the shared cache and memory
// the simulator's own working set competes for.
var walkArena = make([]uint32, 1<<22)

// memWalk is the host calibration: a fixed pseudo-random read-modify-write
// walk over walkArena (no repository code involved), a few milliseconds
// long. Its time moves with what the box's other tenants do to the shared
// cache and memory, which is the dominant slow drift of host-time figures
// on a shared machine.
func memWalk() time.Duration {
	t0 := time.Now()
	s, idx := uint32(0), uint32(1)
	for j := 0; j < 1_000_000; j++ {
		idx = idx*1664525 + 1013904223
		s += walkArena[idx>>10]
		walkArena[idx>>10] = s
	}
	return time.Since(t0)
}

// CPU pinning. On a shared 2-vCPU machine the second vCPU is the other
// tenants' to disturb: in a slow regime anything that needs both CPUs at
// once slows by 25–40 % for tens of minutes while single-CPU work moves
// by a few percent (README, "Measured spread"). The benchmark therefore
// runs itself and its simd child on one CPU and measures work done, not
// parallel speed-up; the traced run lifts the pin for its comparison ops
// so the parallel figures stay in the record.

// cpuSet is a Linux CPU affinity mask (1024 CPUs).
type cpuSet [16]uint64

func (s *cpuSet) last() int {
	for w := len(s) - 1; w >= 0; w-- {
		if s[w] != 0 {
			return w*64 + 63 - bits.LeadingZeros64(s[w])
		}
	}
	return -1
}

// affinity returns the calling thread's allowed CPUs.
func affinity() (cpuSet, error) {
	var s cpuSet
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if errno != 0 {
		return s, errno
	}
	return s, nil
}

// setAffinityAll applies the mask to every thread of this process; threads
// and child processes created afterwards inherit it.
func setAffinityAll(s cpuSet) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
		if errno != 0 && errno != syscall.ESRCH { // a thread may exit while the list is walked
			return errno
		}
	}
	return nil
}

// pinToOneCPU restricts the process to the highest-numbered CPU it may
// use (CPU 0 serves the machine's interrupts) and returns that CPU and the
// mask to restore. Where pinning is not possible the run goes on unpinned
// and says so in its stamp (cpu = -1).
func pinToOneCPU() (cpu int, original cpuSet) {
	original, err := affinity()
	if err != nil || original.last() < 0 {
		return -1, original
	}
	cpu = original.last()
	var one cpuSet
	one[cpu/64] = 1 << (cpu % 64)
	if setAffinityAll(one) != nil {
		return -1, original
	}
	return cpu, original
}
