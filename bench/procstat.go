package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ: /proc reports process times in these
// units. It is 100 on every Linux platform Go supports; the standard
// library has no sysconf to ask.
const clockTick = 10 * time.Millisecond

// usage is what one server process has consumed so far.
type usage struct {
	cpu        time.Duration // user + system
	peakRSSKB  int64
	writeBytes int64 // bytes the process caused to be sent to storage
}

// parseStatCPU extracts utime+stime from the contents of
// /proc/<pid>/stat. The command name (field 2) may itself hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	fields := bytes.Fields(stat[i+1:])
	// fields[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(fields))
	}
	utime, err1 := strconv.ParseInt(string(fields[11]), 10, 64)
	stime, err2 := strconv.ParseInt(string(fields[12]), 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: bad utime/stime %q %q", fields[11], fields[12])
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// parseKeyed returns the integer that follows "key:" in a /proc file of
// "key: value [unit]" lines (status, io).
func parseKeyed(data []byte, key string) (int64, error) {
	for _, line := range bytes.Split(data, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte(key+":"))
		if !ok {
			continue
		}
		fields := bytes.Fields(rest)
		if len(fields) == 0 {
			break
		}
		return strconv.ParseInt(string(fields[0]), 10, 64)
	}
	return 0, fmt.Errorf("proc: no %s line", key)
}

// liveUsage reads a running process's usage from /proc. write_bytes is
// left 0 where /proc/<pid>/io is unreadable.
func liveUsage(pid int) (usage, error) {
	var u usage
	dir := fmt.Sprintf("/proc/%d/", pid)
	stat, err := os.ReadFile(dir + "stat")
	if err != nil {
		return u, err
	}
	if u.cpu, err = parseStatCPU(stat); err != nil {
		return u, err
	}
	status, err := os.ReadFile(dir + "status")
	if err != nil {
		return u, err
	}
	if u.peakRSSKB, err = parseKeyed(status, "VmHWM"); err != nil {
		return u, err
	}
	if io, err := os.ReadFile(dir + "io"); err == nil {
		u.writeBytes, _ = parseKeyed(io, "write_bytes")
	}
	return u, nil
}

// liveRSSKB reads a running process's current resident set size.
func liveRSSKB(pid int) (int64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseKeyed(status, "VmRSS")
}

// exitedUsage is the same reading for a process that has been waited for,
// taken from the rusage the kernel handed back: /proc is gone by then.
func exitedUsage(ps *os.ProcessState) usage {
	u := usage{cpu: ps.UserTime() + ps.SystemTime()}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		u.peakRSSKB = int64(ru.Maxrss)
		u.writeBytes = int64(ru.Oublock) * 512
	}
	return u
}

// selfCPU is the benchmark process's own user + system time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
