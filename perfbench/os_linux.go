package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// sampleHost reads the host's steal and total CPU ticks from /proc/stat:
// the time the hypervisor kept this machine's vCPUs from running while
// they had work, and all the time there was.
func sampleHost() hostSample {
	var s hostSample
	f, err := os.Open("/proc/stat")
	if err != nil {
		return s
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return s
	}
	// cpu  user nice system idle iowait irq softirq steal ...
	fields := strings.Fields(sc.Text())
	for i := 1; i < len(fields) && i <= 8; i++ {
		n, _ := strconv.ParseUint(fields[i], 10, 64)
		s.ticks += n
		if i == 8 {
			s.steal = n
		}
	}
	return s
}

// pacer sleeps an open-loop worker until its next request is due. It
// waits on a timerfd through the runtime's network poller, so a sleeping
// worker holds no P: time.Sleep rounds waits under a millisecond up to
// about a millisecond, and a thread blocked in nanosleep keeps its P until
// sysmon retakes it, which on 2 Ps can hold back the server's network
// wake-ups for up to 10ms.
type pacer struct {
	fd  int
	f   *os.File
	buf [8]byte
}

func newPacer() (*pacer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	// A non-blocking descriptor is registered with the network poller.
	// (File.Fd would switch it back to blocking, so the raw fd is kept.)
	return &pacer{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

// sleep waits for d, which must be positive.
func (p *pacer) sleep(d time.Duration) error {
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)} // it_interval, then it_value
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(p.fd), 0, uintptr(unsafe.Pointer(&spec[0])), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	_, err := p.f.Read(p.buf[:])
	return err
}

func (p *pacer) close() { p.f.Close() }
