package main

import (
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// fdTimer is a kernel timer the Go netpoller can wait on: a goroutine
// reading it parks like one reading a socket, holds no thread and no P,
// and wakes when the kernel's high-resolution timer fires. time.Sleep
// rounds up to the next millisecond whenever the process idles on this
// host, which is a third of a short service time, and a handler blocked
// in nanosleep(2) pins its P until sysmon takes it back.
type fdTimer struct {
	fd uintptr
	f  *os.File // fd as the netpoller sees it
}

var fdTimers = sync.Pool{New: func() any {
	const clockMonotonic, nonblockCloexec = 1, syscall.O_NONBLOCK | syscall.O_CLOEXEC
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, nonblockCloexec, 0)
	if errno != 0 {
		return (*fdTimer)(nil)
	}
	return &fdTimer{fd, os.NewFile(fd, "timerfd")}
}}

// preciseSleep parks the calling goroutine for d, to within about 0.1 ms.
func preciseSleep(d time.Duration) {
	if d <= 0 {
		return // a zero value would disarm the timer and the read never return
	}
	t := fdTimers.Get().(*fdTimer)
	if t == nil {
		time.Sleep(d)
		return
	}
	spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(int64(d))} // {interval, value}: fire once
	var expirations [8]byte
	_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	if errno != 0 {
		time.Sleep(d)
	} else if _, err := t.f.Read(expirations[:]); err != nil {
		time.Sleep(d)
	}
	fdTimers.Put(t)
}
