package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// machine stamps every result with where it was measured. It is recorded
// as data only: nothing compares or gates on it.
type machine struct {
	NumCPU        int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	CPUModel      string  `json:"cpu_model"`
	GoVersion     string  `json:"go_version"`
	CalibrationMS float64 `json:"calibration_ms"`
}

func machineStamp() machine {
	return machine{
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		CPUModel:      cpuModel(),
		GoVersion:     runtime.Version(),
		CalibrationMS: calibrate(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// calibrate times a fixed single-threaded kernel (generate and sort 2^18
// pseudo-random words) five times in this process and returns the median in
// milliseconds, so results from different machines can be put on a common
// scale.
func calibrate() float64 {
	buf := make([]int, 1<<18)
	var times []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		x := uint64(0x9E3779B97F4A7C15)
		for i := range buf {
			buf[i] = int(splitmix(&x) >> 1)
		}
		sort.Ints(buf)
		times = append(times, ms(time.Since(t0)))
	}
	return median(times)
}

// splitmix advances a SplitMix64 state and returns the next value.
func splitmix(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// instanceSeed derives the seed of the i-th generated instance of a run.
// Warm-up instances use negative i, so they never coincide with a timed
// instance.
func instanceSeed(seed int64, i int) int64 {
	x := uint64(seed)*0x100000001B3 ^ uint64(int64(i))
	return int64(splitmix(&x) >> 1)
}
