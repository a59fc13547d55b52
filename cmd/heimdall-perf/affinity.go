package main

import (
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask: bit c of word c/64 is CPU c.
type cpuMask [16]uint64

func (m *cpuMask) cpus() []int {
	var out []int
	for c := 0; c < len(m)*64; c++ {
		if m[c/64]&(1<<(c%64)) != 0 {
			out = append(out, c)
		}
	}
	return out
}

func maskOf(cpus []int) cpuMask {
	var m cpuMask
	for _, c := range cpus {
		m[c/64] |= 1 << (c % 64)
	}
	return m
}

func getAffinity(tid int) (cpuMask, error) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return m, errno
	}
	return m, nil
}

func setAffinity(tid int, m cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// cpuSplit divides the CPUs this process may run on between the load
// generator (lower half) and the child server (upper half). Sharing them
// instead lets the scheduler decide, run by run, how two generator
// goroutines and the server's half-dozen split two cores, and slice
// throughput then moves ±15 % between runs of one commit. With a single CPU
// both halves are empty and nothing is pinned.
type cpuSplit struct {
	gen, srv []int
}

func splitCPUs() (cpuSplit, error) {
	m, err := getAffinity(0)
	if err != nil {
		return cpuSplit{}, err
	}
	all := m.cpus()
	if len(all) < 2 {
		return cpuSplit{}, nil
	}
	return cpuSplit{gen: all[:len(all)/2], srv: all[len(all)/2:]}, nil
}

// pinSelf confines every thread of this process to the generator's CPUs.
// Threads started later are cloned from pinned ones and inherit the mask; a
// second sweep catches one cloned from a thread the first had not reached.
func (s cpuSplit) pinSelf() error {
	if len(s.gen) == 0 {
		return nil
	}
	runtime.GOMAXPROCS(len(s.gen))
	mask := maskOf(s.gen)
	for sweep := 0; sweep < 2; sweep++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				return err
			}
			if err := setAffinity(tid, mask); err != nil && err != syscall.ESRCH {
				return err // ESRCH: the thread ended between the listing and the call
			}
		}
	}
	return nil
}

// startPinned starts cmd confined to the server's CPUs: the forking thread
// takes the mask for the duration of the fork, and the child — every thread
// of it, and its GOMAXPROCS — inherits it.
func (s cpuSplit) startPinned(start func() error) error {
	if len(s.srv) == 0 {
		return start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	old, err := getAffinity(0)
	if err != nil {
		return err
	}
	if err := setAffinity(0, maskOf(s.srv)); err != nil {
		return err
	}
	startErr := start()
	if err := setAffinity(0, old); err != nil {
		return err
	}
	return startErr
}
