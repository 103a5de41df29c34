package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"congestedclique/internal/service"
)

// benchmarkFile is the part of BENCHMARK.json the stability mode reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the first and third quartiles with the "exclusive"
// method of Python's statistics.quantiles(values, n=4), the definition the
// spread is judged by.
func quartiles(values []float64) (q1, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	if n < 2 {
		if n == 1 {
			return d[0], d[0]
		}
		return 0, 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		delta := i*m - j*4
		j = min(max(j, 1), n-1)
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// runStability runs each workload k times (seeds 1..k) as child processes
// and prints every end-to-end metric's median and quartile spread against
// its bound from BENCHMARK.json. A spread above its bound (setup_s aside,
// which is judged on its median only) makes the exit status 1.
func runStability(cfg config, k int, stdout, stderr io.Writer) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: stability mode runs from the directory holding BENCHMARK.json:", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintln(stderr, "perfbench: BENCHMARK.json:", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	var names []string
	for _, w := range bf.Workloads {
		if cfg.workload == "" || cfg.workload == "all" || cfg.workload == w.Name {
			names = append(names, w.Name)
		}
	}
	status := 0
	for _, w := range names {
		values := map[string][]float64{}
		for seed := 1; seed <= k; seed++ {
			cmd := exec.Command(exe, "--workload", w, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.FormatFloat(cfg.seconds, 'f', -1, 64), "--trace", "0")
			cmd.Stderr = io.Discard
			t0 := time.Now()
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", w, seed, err)
				status = 1
				continue
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || !res.Correct {
				fmt.Fprintf(stderr, "perfbench: %s seed %d: incorrect or unreadable result\n", w, seed)
				status = 1
				continue
			}
			fmt.Fprintf(stderr, "  %s seed %d: %.1fs", w, seed, time.Since(t0).Seconds())
			for _, e := range bf.EndToEnd {
				fmt.Fprintf(stderr, " %s=%.4g", e.Name, res.Metrics[e.Name].Value)
			}
			fmt.Fprintln(stderr)
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		fmt.Fprintf(stdout, "%s (%d runs)\n", w, k)
		summary := map[string]any{}
		for _, e := range bf.EndToEnd {
			v := values[e.Name]
			q1, q3 := quartiles(v)
			med := median(v)
			spread := ratio(q3-q1, med)
			verdict := "steady"
			switch {
			case spread > e.Bound && e.Name != "setup_s":
				verdict = "TOO WIDE"
				status = 1
			case spread > e.Bound/3:
				verdict = "within bound"
			}
			fmt.Fprintf(stdout, "  %-18s median %14.4f  spread %7.4f  bound %5.3f  %s\n", e.Name, med, spread, e.Bound, verdict)
			summary[e.Name] = map[string]float64{"median": med, "spread": spread, "bound": e.Bound}
		}
		line, _ := json.Marshal(map[string]any{"workload": w, "runs": k, "metrics": summary})
		fmt.Fprintln(stdout, string(line))
	}
	return status
}

// runSaturate measures service-open's closed-loop saturation throughput:
// w callers (split over the two connections) issue the workload's request
// mix back to back, for w in 2, 4, 8 and 16. serviceRate is set to about
// half of the best throughput it reports.
func runSaturate(cfg config, stdout, stderr io.Writer) int {
	n := cfg.n
	if n == 0 {
		n = serviceN
	}
	per := cfg.seconds / 4
	for _, w := range []int{2, 4, 8, 16} {
		s, err := startService(n)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		var (
			mu         sync.Mutex
			ok, shed   int
			other      error
			wg         sync.WaitGroup
			start      = time.Now()
			stopAt     = start.Add(time.Duration(per * float64(time.Second)))
			nextSeedID = 0
		)
		for g := 0; g < w; g++ {
			wg.Add(1)
			go func(cl *service.Client) {
				defer wg.Done()
				for time.Now().Before(stopAt) {
					mu.Lock()
					i := nextSeedID
					nextSeedID++
					mu.Unlock()
					o := smallRoute(n, instanceSeed(cfg.seed, i))
					var err error
					if isSortSlot(i) {
						o, err = fullSort(n, instanceSeed(cfg.seed, i))
					}
					if err == nil {
						_, err = callService(cl, o)
					}
					mu.Lock()
					switch {
					case err == nil:
						ok++
					case errors.Is(err, service.ErrOverloaded):
						shed++
					default:
						other = err
					}
					mu.Unlock()
				}
			}(s.clients[g%len(s.clients)])
		}
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		s.close()
		if other != nil {
			fmt.Fprintln(stderr, "perfbench:", other)
			return 1
		}
		fmt.Fprintf(stdout, "callers %2d: %8.1f ok/s  %5d shed\n", w, float64(ok)/elapsed, shed)
	}
	return 0
}
