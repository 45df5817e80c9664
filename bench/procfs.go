package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
)

// clockTick is the kernel's USER_HZ: /proc/<pid>/stat reports CPU time in
// these ticks. Linux fixes it at 100 on every architecture Go supports.
const clockTick = 100

// parseStatCPU extracts utime+stime, in seconds, from the contents of
// /proc/<pid>/stat. The command name (field 2) is parenthesised and may
// itself contain spaces and parentheses, so fields are counted from the last
// ')'.
func parseStatCPU(stat []byte) (float64, error) {
	end := bytes.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	fields := bytes.Fields(stat[end+1:])
	// fields[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(fields))
	}
	utime, err := strconv.ParseUint(string(fields[11]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseUint(string(fields[12]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return float64(utime+stime) / clockTick, nil
}

// parseStatusKB extracts one "Key:   123 kB" value from the contents of
// /proc/<pid>/status.
func parseStatusKB(status []byte, key string) (int64, error) {
	for _, line := range bytes.Split(status, []byte{'\n'}) {
		rest, ok := bytes.CutPrefix(line, []byte(key+":"))
		if !ok {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) != 2 || string(f[1]) != "kB" {
			return 0, fmt.Errorf("proc status: malformed %s line %q", key, line)
		}
		return strconv.ParseInt(string(f[0]), 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// procCPU reads a live process's cumulative CPU seconds.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// procPeakRSSMB reads a live process's peak resident set (VmHWM) in MB.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(b, "VmHWM")
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}
