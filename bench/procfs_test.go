package main

import (
	"os"
	"testing"
)

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and a parenthesis, as the kernel prints it.
	stat := []byte("4242 (log) stream d) S 1 4242 4242 0 -1 4194560 1500 0 3 0 1234 567 0 0 20 0 7 0 99999 123456789 4000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n")
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(1234+567) / clockTick; got != want {
		t.Errorf("cpu = %v s, want %v", got, want)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 x S 1 2 3 4 5 6 7 8 9 10 11 12 13 14"} {
		if _, err := parseStatCPU([]byte(bad)); err == nil {
			t.Errorf("parseStatCPU(%q) accepted malformed input", bad)
		}
	}
}

func TestParseStatusKB(t *testing.T) {
	status := []byte("Name:\tlogstreamd\nVmPeak:\t 1234567 kB\nVmHWM:\t   67584 kB\nVmRSS:\t   60000 kB\nThreads:\t7\n")
	got, err := parseStatusKB(status, "VmHWM")
	if err != nil || got != 67584 {
		t.Errorf("VmHWM = %d, %v; want 67584", got, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("missing key accepted")
	}
	if _, err := parseStatusKB([]byte("VmHWM:\t12 MB\n"), "VmHWM"); err == nil {
		t.Error("wrong unit accepted")
	}
}

func TestProcReadsOwnProcess(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc")
	}
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Error(err)
	}
	if mb, err := procPeakRSSMB(os.Getpid()); err != nil || mb <= 0 {
		t.Errorf("peak RSS = %v MB, %v", mb, err)
	}
}
