package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostSample is one reading of the clocks a phase is measured against: wall
// time, this process's CPU time (client and server share the process) and
// the machine-wide /proc/stat counters, whose steal column is the time the
// hypervisor ran someone else on our virtual CPUs.
type hostSample struct {
	wall       time.Time
	cpu        time.Duration
	steal      uint64
	totalTicks uint64
}

func readHost() hostSample {
	s := hostSample{wall: time.Now(), cpu: processCPU()}
	s.steal, s.totalTicks = procStatCPU()
	return s
}

// processCPU returns user+system CPU time consumed by this process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procStatCPU returns the steal and total ticks of the aggregate "cpu" line
// of /proc/stat (zeros where the file is unavailable).
func procStatCPU() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already included in user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// hostDelta is what happened between two samples.
type hostDelta struct {
	wall      time.Duration
	cpu       time.Duration
	stealFrac float64 // share of all CPU ticks stolen by the hypervisor
	cpuUtil   float64 // process CPU time over wall time × CPUs
}

func (a hostSample) until(b hostSample) hostDelta {
	d := hostDelta{wall: b.wall.Sub(a.wall), cpu: b.cpu - a.cpu}
	if t := b.totalTicks - a.totalTicks; t > 0 {
		d.stealFrac = float64(b.steal-a.steal) / float64(t)
	}
	if d.wall > 0 {
		d.cpuUtil = d.cpu.Seconds() / (d.wall.Seconds() * float64(runtime.NumCPU()))
	}
	return d
}
