package loadgen

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"congestedclique/internal/service"
)

// startServiceServer brings up a cliqued-equivalent server on a loopback
// port for the network-transport tests.
func startServiceServer(t *testing.T, cfg service.Config) string {
	t.Helper()
	srv, err := service.NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return ln.Addr().String()
}

func TestRunNetworkClosedLoopVerified(t *testing.T) {
	const n = 16
	addr := startServiceServer(t, service.Config{N: n, MaxConcurrency: 2, QueueDepth: 32})
	res, err := RunNetwork(context.Background(), NetworkConfig{
		Config: Config{N: n, Concurrency: 2, Streams: 3, OpsPerStream: 4, Workload: "mixed", Verify: true},
		Addr:   addr,
	})
	if err != nil {
		t.Fatalf("RunNetwork: %v", err)
	}
	if res.Verified != 3*4 {
		t.Errorf("verified %d ops, want %d", res.Verified, 12)
	}
	if res.SucceededOps != 12 || res.FailedOps != 0 || res.SheddedOps != 0 {
		t.Errorf("ok/failed/shed = %d/%d/%d, want 12/0/0", res.SucceededOps, res.FailedOps, res.SheddedOps)
	}
	if res.OpsPerSec <= 0 || res.P50 <= 0 || res.P999 < res.P50 {
		t.Errorf("implausible aggregates: %+v", res)
	}
}

func TestRunNetworkFaultedRetries(t *testing.T) {
	const n = 16
	addr := startServiceServer(t, service.Config{N: n, MaxConcurrency: 2, QueueDepth: 32,
		AllowFaultInjection: true})
	res, err := RunNetwork(context.Background(), NetworkConfig{
		Config: Config{N: n, Concurrency: 2, Streams: 2, OpsPerStream: 4, Workload: "route",
			Verify: true, FaultEvery: 2, Retries: 1},
		Addr: addr,
	})
	if err != nil {
		t.Fatalf("RunNetwork: %v", err)
	}
	if res.FailedOps != 0 {
		t.Errorf("faulted ops failed despite retry budget: %d (first: %s)", res.FailedOps, res.FirstError)
	}
	if res.Retries == 0 {
		t.Error("server-side retry counter did not move")
	}
}

func TestRunNetworkOpenLoopOverload(t *testing.T) {
	const n = 16
	// A deliberately tiny server: one engine, queue depth 1, so an offered
	// rate far above capacity must shed — with every accepted result still
	// verifying against the golden (issue() verifies in open-loop mode).
	addr := startServiceServer(t, service.Config{N: n, MaxConcurrency: 1, QueueDepth: 1})
	res, err := RunNetwork(context.Background(), NetworkConfig{
		Config:   Config{N: n, Concurrency: 1, Streams: 4, Workload: "route", Verify: false},
		Addr:     addr,
		Rate:     2000,
		Duration: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("RunNetwork: %v", err)
	}
	if res.SucceededOps == 0 {
		t.Fatal("no operation succeeded in the open-loop window")
	}
	if res.SheddedOps == 0 {
		t.Fatal("offered 2000/s against queue depth 1 and nothing was shed")
	}
	if res.FailedOps != 0 {
		t.Errorf("open-loop overload produced %d hard failures (first: %s)", res.FailedOps, res.FirstError)
	}
	t.Logf("open loop: offered %d, ok %d, shed %d, p50=%v p999=%v",
		res.TotalOps, res.SucceededOps, res.SheddedOps, res.P50, res.P999)
}

func TestRunNetworkRejectsMismatchedN(t *testing.T) {
	addr := startServiceServer(t, service.Config{N: 8})
	_, err := RunNetwork(context.Background(), NetworkConfig{
		Config: Config{N: 16, Concurrency: 1, Streams: 1, OpsPerStream: 1, Workload: "route"},
		Addr:   addr,
	})
	if err == nil {
		t.Fatal("n mismatch between run and server not rejected")
	}
}

// TestRunOpenLoopSlowHandler drives the open-loop scheduler with a handler
// far slower than the arrival interval: every due operation must still be
// offered (exactly Rate × Duration, none dropped behind the slow replies),
// latencies must run from the due time, and sheds must land in the latency
// sample as misses.
func TestRunOpenLoopSlowHandler(t *testing.T) {
	const streams = 3
	const slow = 30 * time.Millisecond
	cfg := NetworkConfig{
		Config:   Config{N: 4, Streams: streams, Workload: "route"},
		Rate:     200,
		Duration: 250 * time.Millisecond,
	}
	const want = 50 // 200/s × 0.25s
	var calls atomic.Int32
	issue := func(_ *service.Client, _, _, _ bool) (bool, bool, error) {
		call := calls.Add(1)
		time.Sleep(slow)
		shed := call%5 == 0
		return !shed, shed, nil
	}
	res, err := runOpenLoop(cfg, make([]*service.Client, streams), issue, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalOps != want || int(calls.Load()) != want {
		t.Fatalf("offered %d ops (%d issued), want %d", res.TotalOps, calls.Load(), want)
	}
	if res.SucceededOps != want*4/5 || res.SheddedOps != want/5 || res.FailedOps != 0 {
		t.Errorf("ok/shed/failed = %d/%d/%d, want %d/%d/0", res.SucceededOps, res.SheddedOps, res.FailedOps, want*4/5, want/5)
	}
	if res.P50 < slow || res.P50 == MissLatency {
		t.Errorf("p50 %v: want a served latency of at least the handler's %v", res.P50, slow)
	}
	// A fifth of the sample is shed, so the p90 and everything above it
	// read as misses.
	if res.P90 != MissLatency || res.P999 != MissLatency {
		t.Errorf("p90 %v, p999 %v: sheds must count as latency misses", res.P90, res.P999)
	}
}
