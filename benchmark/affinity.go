package main

import (
	"errors"
	"fmt"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// Every program under test runs confined to one processor. The sizing
// host's two virtual processors are at times two hardware threads of
// one core and at times not, for minutes on end, as the hypervisor
// moves them: a second busy thread then halves the speed of the first
// (the canary reads 42 ms alone and 83 ms beside an arithmetic loop)
// or leaves it alone. Anything that keeps both processors busy — a
// sweep's concurrent garbage collector, shiftd beside its clients —
// swung by up to 1.9× between runs of the same code with that, and no
// estimator inside a run removes it. On one processor the programs
// take turns, the placement no longer matters, and service_hot repeats
// to 1 % where it ranged 60 %. A Go program started this way sees one
// processor and sets GOMAXPROCS to 1.

// cpuMask is a sched_setaffinity bit mask, 1024 processors wide.
type cpuMask [16]uint64

func (m *cpuMask) call(trap uintptr) error {
	if _, _, errno := syscall.RawSyscall(trap, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); errno != 0 {
		return errno
	}
	return nil
}

// last is the highest-numbered processor in the mask: interrupts and
// the rest of the system tend to sit on the lowest.
func (m *cpuMask) last() (int, bool) {
	for i := len(m)*64 - 1; i >= 0; i-- {
		if m[i/64]&(1<<(i%64)) != 0 {
			return i, true
		}
	}
	return 0, false
}

// startConfined starts cmd with the new process, and so everything it
// starts in turn, confined to one of the processors this process may
// use. A child inherits the mask of the thread that forks it, so the
// calling goroutine is locked to its thread, that thread is confined
// for the length of the fork, and then given its mask back.
func startConfined(cmd *exec.Cmd) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var allowed, one cpuMask
	if err := allowed.call(syscall.SYS_SCHED_GETAFFINITY); err != nil {
		return fmt.Errorf("sched_getaffinity: %w", err)
	}
	cpu, ok := allowed.last()
	if !ok {
		return errors.New("sched_getaffinity: empty processor mask")
	}
	one[cpu/64] = 1 << (cpu % 64)
	if err := one.call(syscall.SYS_SCHED_SETAFFINITY); err != nil {
		return fmt.Errorf("sched_setaffinity: %w", err)
	}
	err := cmd.Start()
	if restore := allowed.call(syscall.SYS_SCHED_SETAFFINITY); restore != nil && err == nil {
		err = fmt.Errorf("sched_setaffinity (restoring): %w", restore)
	}
	return err
}
