package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	goruntime "runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"selfstab"
	"selfstab/internal/obs"
	"selfstab/internal/serve"
)

// The served phase: an in-process internal/serve server on a loopback
// listener steps a world at a fixed rate while an open-loop generator
// sends requests on a fixed schedule over at most nproc connections,
// cycling through a fixed mix of reads plus a small POST /inject fault
// about once a second. Churn's traced run serves its world this way to
// measure the serve layer.

type serveShape struct {
	sps  float64 // server steps per second
	rps  float64 // generator requests per second
	frac float64 // fault fraction of each POST /inject
}

// endpoint classes of the request mix.
const (
	epClusters = iota
	epNode
	epStats
	epMetrics
	epInject
	numEndpoints
)

var endpointNames = [numEndpoints]string{"clusters", "node", "stats", "metrics", "inject"}

// readMix is the fixed cycle of reads; every rps-th request (one a
// second) is an inject instead.
var readMix = []string{
	"/clusters", "/state/node", "/stats/clustering", "/state/node", "/stats/traffic",
	"/clusters", "/metrics", "/state/node", "/stats/energy", "/stats/convergence",
}

func classOf(path string) int {
	path, _, _ = strings.Cut(path, "?")
	switch {
	case path == "/clusters":
		return epClusters
	case path == "/state/node":
		return epNode
	case path == "/metrics":
		return epMetrics
	case path == "/inject":
		return epInject
	}
	return epStats
}

// request is one scheduled request and what became of it.
type request struct {
	path   string
	body   []byte        // POST body (nil: GET)
	at     time.Duration // due time, from the start of the window
	due    time.Time
	lag    time.Duration // send time minus due time
	lat    time.Duration // completion minus due time
	failed bool
}

// servePhase serves world for seconds: the server steps it at a fixed
// rate while the open-loop generator runs its schedule. It checks every
// response and the end state and reports the serve layer's per-layer
// metrics; it leaves the world stabilized and verified, with the
// server's collector attached.
func servePhase(b *bench, world *selfstab.Network, seconds int) error {
	sh := serveShape{sps: 4, rps: 100, frac: 0.01}
	colEpoch := time.Now()
	srv, err := serve.New(world, serve.Config{StepsPerSecond: sh.sps, TraceRing: ringSize})
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("serve: listen: %w", err)
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	httpDone := make(chan error, 1)
	go func() { httpDone <- hs.Serve(ln) }()
	stepCtx, cancelStepping := context.WithCancel(context.Background())
	stepDone := make(chan error, 1)
	go func() { stepDone <- srv.Run(stepCtx) }()
	// stopStepping and stopHTTP end the two server goroutines and wait
	// for them; each runs once, and both run on every return path.
	var stepOnce, httpOnce sync.Once
	var stepErr, httpErr error
	stopStepping := func() error {
		stepOnce.Do(func() { cancelStepping(); stepErr = <-stepDone })
		return stepErr
	}
	stopHTTP := func() error {
		httpOnce.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			httpErr = hs.Shutdown(ctx)
			if err := <-httpDone; !errors.Is(err, http.ErrServerClosed) {
				httpErr = errors.Join(httpErr, err)
			}
		})
		return httpErr
	}
	defer func() { _ = stopStepping(); _ = stopHTTP() }()
	base := "http://" + ln.Addr().String()
	col, ok := world.Probe().(*obs.Collector)
	if !ok {
		return fmt.Errorf("serve: the server attached no collector")
	}

	ids := world.IDs()
	reqs := schedule(sh, seconds, ids, b.opt.seed)
	hist0, err := stepHistogram(base)
	if err != nil {
		return err
	}
	window, closeWindow := b.tr.open("window", 0)
	windowStart := time.Now()
	generate(b, base, reqs, window)
	windowLen := time.Since(windowStart)
	closeWindow()
	hist1, err := stepHistogram(base)
	if err != nil {
		return err
	}

	lat := make([]float64, 0, len(reqs))
	lag := make([]float64, 0, len(reqs))
	var class [numEndpoints][]float64
	// Per-second slices of the window: the latency quantiles are the
	// medians of each slice's quantile, so a burst of host noise in one
	// second moves one slice, not the result.
	slices := make([][]float64, seconds+1)
	maxLag := time.Duration(0)
	for _, q := range reqs {
		b.attempted++
		if q.failed {
			b.failed++
			continue
		}
		sec := min(int(q.at/time.Second), seconds)
		slices[sec] = append(slices[sec], ms(q.lat))
		lat = append(lat, ms(q.lat))
		lag = append(lag, ms(q.lag))
		maxLag = max(maxLag, q.lag)
		class[classOf(q.path)] = append(class[classOf(q.path)], ms(q.lat))
	}
	var p50s, p90s []float64
	for _, sl := range slices {
		if len(sl) >= 50 {
			p50s = append(p50s, quantile(sl, 0.5))
			p90s = append(p90s, quantile(sl, 0.9))
		}
	}
	p50, p90 := median(p50s), median(p90s)
	fmt.Fprintf(b.log, "serve: generator lag p50 %.3f ms, p90 %.3f ms, max %.3f ms over %d requests; request p50 %.3f ms, p90 %.3f ms, p99 %.3f ms; server ran %.0f steps in the window (%g/s asked)\n",
		quantile(lag, 0.5), quantile(lag, 0.9), ms(maxLag), len(lag), p50, p90, quantile(lat, 0.99), hist1.count-hist0.count, sh.sps)
	b.check("generator backlog", backlog(reqs))

	// The end state: stop stepping, then the served cluster map must be
	// the world's, and the world must verify after a final Stabilize.
	b.check("server stepper", stopStepping())
	var served struct{ Clusters []selfstab.Cluster }
	if body, err := get(base + "/clusters"); err != nil {
		b.check("GET /clusters", err)
	} else if err := json.Unmarshal(body, &served); err != nil {
		b.check("GET /clusters", err)
	} else if !reflect.DeepEqual(served.Clusters, world.Clusters()) {
		b.check("/clusters equals Clusters()", fmt.Errorf("served %d clusters, world has %d", len(served.Clusters), len(world.Clusters())))
	}
	b.perLayer("serve.step_hold_ms", "ms", (hist1.sum-hist0.sum)/(hist1.count-hist0.count)*1e3)
	for c, xs := range class {
		b.perLayer("serve."+endpointNames[c]+"_ms", "ms", median(xs))
	}
	b.perLayer("serve.gen_lag_ms", "ms", quantile(lag, 0.5))
	b.perLayer("serve.req_p50_ms", "ms", p50)
	b.perLayer("serve.req_p90_ms", "ms", p90)
	var held int64
	for _, r := range col.Recent(0) {
		if r.BeginNs >= windowStart.Sub(colEpoch).Nanoseconds() {
			held += r.DurNs
		}
	}
	b.perLayer("serve.lock_share", "ratio", float64(held)/float64(windowLen))
	b.check("server shutdown", stopHTTP())
	if _, err := world.Stabilize(maxStabilize); err != nil {
		return fmt.Errorf("serve: final stabilize: %w", err)
	}
	b.check("Verify after serving", world.Verify())
	return nil
}

// schedule lays out the open-loop request schedule: rps × seconds
// requests arriving as a Poisson process of rate rps (independent users;
// random gaps also keep arrivals from locking into phase with the
// server's step ticks), the read mix in a fixed cycle, one inject per rps
// requests, node lookups and gaps drawn from the seed.
func schedule(sh serveShape, seconds int, ids []int64, seed int64) []request {
	rng := rand.New(rand.NewSource(seed))
	total := int(sh.rps) * seconds
	perSecond := int(sh.rps)
	reqs := make([]request, total)
	at := time.Duration(0)
	for i := range reqs {
		at += time.Duration(rng.ExpFloat64() / sh.rps * float64(time.Second))
		reqs[i].at = at
		if i%perSecond == perSecond/2 {
			reqs[i].path = "/inject"
			reqs[i].body = []byte(fmt.Sprintf(`{"kind":"faults","frac":%g}`, sh.frac))
			continue
		}
		path := readMix[i%len(readMix)]
		if path == "/state/node" {
			path += "?id=" + strconv.FormatInt(ids[rng.Intn(len(ids))], 10)
		}
		reqs[i].path = path
	}
	return reqs
}

// generate runs the schedule: nproc workers, each with one keep-alive
// connection, take requests in order, wait until each is due, send it and
// time it from its due time. A request that cannot go out on time waits
// for a free connection, and that wait counts.
func generate(b *bench, base string, reqs []request, window int) {
	workers := goruntime.NumCPU()
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(20 * time.Millisecond)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{
				Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
				Timeout:   30 * time.Second,
			}
			defer client.CloseIdleConnections()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				q := &reqs[i]
				q.due = start.Add(q.at)
				time.Sleep(time.Until(q.due))
				sent := time.Now()
				q.lag = sent.Sub(q.due)
				body, err := do(client, base, q)
				done := time.Now()
				q.lat = done.Sub(q.due)
				b.tr.record(q.path, window, int64(i+1), sent, done.Sub(sent))
				if err == nil {
					err = checkBody(q.path, body)
				}
				if err != nil {
					q.failed = true
					fmt.Fprintf(b.log, "request %d %s: %v\n", i, q.path, err)
				}
			}
		}()
	}
	wg.Wait()
}

// do sends one request and returns its body; a non-2xx status is an
// error.
func do(client *http.Client, base string, q *request) ([]byte, error) {
	var resp *http.Response
	var err error
	if q.body != nil {
		resp, err = client.Post(base+q.path, "application/json", bytes.NewReader(q.body))
	} else {
		resp, err = client.Get(base + q.path)
	}
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, clip(string(body)))
	}
	return body, nil
}

// checkBody parses a response: JSON everywhere but /metrics, whose
// sample lines must parse as Prometheus text; /stats/traffic must
// conserve packets.
func checkBody(path string, body []byte) error {
	if path == "/metrics" {
		_, err := parseMetrics(body)
		return err
	}
	if path == "/stats/traffic" {
		var doc struct{ Traffic selfstab.TrafficStats }
		if err := json.Unmarshal(body, &doc); err != nil {
			return err
		}
		return checkLedger(doc.Traffic)
	}
	if !json.Valid(body) {
		return fmt.Errorf("response is not JSON")
	}
	return nil
}

// parseMetrics reads Prometheus text exposition into name{labels} → value.
func parseMetrics(body []byte) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// stepHist is the server's step-duration histogram total: steps taken and
// the seconds they took. The stepper holds the world's write lock for
// exactly the step.
type stepHist struct{ count, sum float64 }

// stepHistogram reads the step histogram's count and sum from /metrics.
func stepHistogram(base string) (stepHist, error) {
	body, err := get(base + "/metrics")
	if err != nil {
		return stepHist{}, fmt.Errorf("serve: metrics: %w", err)
	}
	m, err := parseMetrics(body)
	if err != nil {
		return stepHist{}, fmt.Errorf("serve: metrics: %w", err)
	}
	sum, ok1 := m["selfstab_step_duration_seconds_sum"]
	n, ok2 := m["selfstab_step_duration_seconds_count"]
	if !ok1 || !ok2 {
		return stepHist{}, fmt.Errorf("serve: no step histogram in /metrics")
	}
	return stepHist{count: n, sum: sum}, nil
}

// backlog fails when the generator fell behind for good: the requests of
// the last tenth of the window must not start later than a second after
// they were due.
func backlog(reqs []request) error {
	for _, q := range reqs[len(reqs)*9/10:] {
		if q.lag > time.Second {
			return fmt.Errorf("request due at %v started %v late", q.due.Format(time.StampMilli), q.lag)
		}
	}
	return nil
}

func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode/100 != 2 {
		err = fmt.Errorf("status %d", resp.StatusCode)
	}
	return body, err
}
