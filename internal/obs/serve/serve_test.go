package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"proclus/internal/obs"
	"proclus/internal/obs/metrics"
	"proclus/internal/obs/obstest"
)

func startTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	opts.Addr = "127.0.0.1:0"
	s, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		// Drop the test client's keep-alive connections so goroutine-leak
		// assertions see a settled state.
		http.DefaultClient.CloseIdleConnections()
	})
	return s
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServerEndpoints(t *testing.T) {
	obstest.VerifyNoLeaks(t)
	reg := metrics.NewRegistry()
	reg.Counter("proclus_distance_evals_total", "distance evaluations").Add(42)
	reg.Histogram("proclus_phase_seconds", "phase wall time", metrics.L("phase", "iterate")).Observe(0.5)
	var counters obs.Counters
	counters[obs.DistanceEvals].Add(42)
	live := NewLive()
	live.Observe(obs.Event{Type: obs.EvRunStart, Algorithm: "proclus", Points: 100, Dims: 5})
	live.Observe(obs.Event{Type: obs.EvPhaseEnd, Algorithm: "proclus", Phase: "initialize", Seconds: 0.25})

	s := startTestServer(t, Options{Registry: reg, Counters: &counters, Live: live})
	base := "http://" + s.Addr()

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"proclus_distance_evals_total 42",
		"# TYPE proclus_phase_seconds histogram",
		`proclus_phase_seconds_bucket{phase="iterate",le="+Inf"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = get(t, base+"/run")
	if code != http.StatusOK {
		t.Fatalf("/run status %d", code)
	}
	var snap LiveSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/run is not valid JSON: %v\n%s", err, body)
	}
	if !snap.Running || snap.Report.Algorithm != "proclus" {
		t.Errorf("/run snapshot = %+v", snap)
	}
	if snap.Report.Counters.DistanceEvals != 42 {
		t.Errorf("/run counters = %+v", snap.Report.Counters)
	}
	if len(snap.Report.Metrics) == 0 {
		t.Error("/run carries no metrics snapshot")
	}
	if len(snap.Report.Phases) != 1 || snap.Report.Phases[0].Name != "initialize" {
		t.Errorf("/run phases = %+v", snap.Report.Phases)
	}

	if code, _ = get(t, base+"/debug/vars"); code != http.StatusOK {
		t.Errorf("/debug/vars status %d", code)
	}
	if code, _ = get(t, base+"/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", code)
	}
	if code, _ = get(t, base+"/"); code != http.StatusOK {
		t.Errorf("/ status %d", code)
	}
	if code, _ = get(t, base+"/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path status %d, want 404", code)
	}
}

// TestServerConcurrentWithRecording drives the handlers while metrics
// and events are being recorded, so `go test -race` proves the read
// paths never race with the hot path.
func TestServerConcurrentWithRecording(t *testing.T) {
	obstest.VerifyNoLeaks(t)
	reg := metrics.NewRegistry()
	var counters obs.Counters
	live := NewLive()
	s := startTestServer(t, Options{Registry: reg, Counters: &counters, Live: live})
	base := "http://" + s.Addr()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		hist := reg.Histogram("proclus_phase_seconds", "phase wall time", metrics.L("phase", "iterate"))
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			i++
			hist.Observe(float64(i%10) * 0.01)
			counters[obs.DistanceEvals].Add(7)
			live.Observe(obs.Event{Type: obs.EvIteration, Restart: 1, Iteration: i, Objective: 1, Best: 1})
		}
	}()
	for i := 0; i < 20; i++ {
		for _, path := range []string{"/metrics", "/run", "/debug/vars"} {
			if code, _ := get(t, base+path); code != http.StatusOK {
				t.Errorf("%s status %d", path, code)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestLiveNilSafe(t *testing.T) {
	var l *Live
	l.Observe(obs.Event{Type: obs.EvRunStart})
	if snap := l.Snapshot(); snap.Running || snap.Events != 0 {
		t.Errorf("nil live snapshot = %+v", snap)
	}
}

func TestLiveRunLifecycle(t *testing.T) {
	l := NewLive()
	l.Observe(obs.Event{Type: obs.EvRunStart, Algorithm: "proclus", Points: 10, Dims: 2})
	l.Observe(obs.Event{Type: obs.EvRestartEnd, Restart: 2, Iteration: 3, Objective: 2.5, Seconds: 0.1})
	l.Observe(obs.Event{Type: obs.EvRestartEnd, Restart: 1, Iteration: 4, Objective: 2.0, Seconds: 0.2})
	if snap := l.Snapshot(); !snap.Running ||
		len(snap.Report.Restarts) != 2 || snap.Report.Restarts[0].Restart != 1 {
		t.Errorf("mid-run snapshot = %+v", snap)
	}
	l.Observe(obs.Event{Type: obs.EvRunEnd, Objective: 2.0, Clusters: 3, Outliers: 1, Seconds: 0.5})
	snap := l.Snapshot()
	if snap.Running || snap.Report.Objective != 2.0 || snap.Report.TotalSeconds != 0.5 {
		t.Errorf("post-run snapshot = %+v", snap)
	}
	// A new run resets the accumulated report.
	l.Observe(obs.Event{Type: obs.EvRunStart, Algorithm: "clique", Points: 5, Dims: 2})
	if snap := l.Snapshot(); len(snap.Report.Restarts) != 0 || snap.Report.Algorithm != "clique" {
		t.Errorf("reset snapshot = %+v", snap)
	}
}
