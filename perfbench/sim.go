package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"time"

	"selfstab"
	"selfstab/internal/geom"
	"selfstab/internal/snapshot"
	"selfstab/internal/topology"
)

// The three simulated workloads. Each is a script over a world built
// from --seed: the same seed, window and scale give the same inputs and,
// because the engine is deterministic, the same simulated outcomes. The
// window's work is fixed by --seconds (rounds or steps per second of
// budget), never by the clock, so every simulated value repeats exactly.

// meanDegree is the expected radio degree of every deployment.
const meanDegree = 10

// maxStabilize bounds every Stabilize call: a world that does not settle
// fails the run instead of stepping on.
const maxStabilize = 1000

// rangeFor is the radio range that gives n uniform nodes in the unit
// square a mean degree of about meanDegree.
func rangeFor(n int) float64 { return math.Sqrt(meanDegree / (math.Pi * float64(n))) }

// recoverShape is the recover workload: a cold start, then rounds of
// InjectFaults(frac) followed by Stabilize.
type recoverShape struct {
	n, rounds int
	frac      float64
}

func recoverShapeFor(opt options) recoverShape {
	return recoverShape{
		n:      scaled(20000, opt.scale, 400),
		rounds: scaled(opt.seconds, opt.scale, 1),
		frac:   0.1,
	}
}

func runRecover(b *bench) error {
	if err := recoverScript(b, recoverShapeFor(b.opt), 0); err != nil {
		return err
	}
	guardParallel(b, func(tb *bench, workers int) error {
		return recoverScript(tb, recoverShape{n: 4500, rounds: 2, frac: 0.1}, workers)
	})
	return nil
}

func recoverScript(b *bench, sh recoverShape, workers int) error {
	var net *selfstab.Network
	err := b.tr.do("construct", 0, func() (err error) {
		net, err = selfstab.NewRandomNetwork(sh.n, selfstab.WithSeed(b.opt.seed), selfstab.WithRange(rangeFor(sh.n)))
		return err
	})
	if err != nil {
		return fmt.Errorf("recover: construct: %w", err)
	}
	net.SetParallelism(workers)
	b.setupDone()
	if b.tr != nil {
		b.perLayer("topology.build_ms", "ms", topologyBuildMs(net))
	}

	window, closeWindow := b.tr.open("window", 0)
	var traced, untraced time.Duration
	roundCPU := make([]float64, 0, sh.rounds)
	var tracedSteps, untracedSteps int
	steps := make([]int, 0, sh.rounds+1)
	for round := 0; round <= sh.rounds; round++ {
		// Traced runs alternate rounds with and without the probe, so the
		// tracing overhead is measured on the same work.
		on := b.tr != nil && round%2 == 0
		if on {
			b.tr.attach(net)
		} else if b.tr != nil {
			net.DetachProbe()
		}
		// A round is one operation: InjectFaults, then Stabilize.
		start := cpuNow()
		if round > 0 {
			_ = b.tr.do("InjectFaults", window, func() error { net.InjectFaults(sh.frac); return nil })
		}
		before := net.StepCount()
		var s int
		stab := time.Now()
		err := b.tr.do("Stabilize", window, func() (err error) {
			s, err = net.Stabilize(maxStabilize)
			return err
		})
		d := time.Since(stab)
		cpu := cpuNow() - start
		if b.op(err) != nil {
			closeWindow()
			return fmt.Errorf("recover: stabilize round %d: %w", round, err)
		}
		if on {
			traced += d
			tracedSteps += net.StepCount() - before
		} else {
			untraced += d
			untracedSteps += net.StepCount() - before
		}
		if round > 0 {
			roundCPU = append(roundCPU, ms(cpu))
		}
		steps = append(steps, s)
		b.check(fmt.Sprintf("Verify after round %d", round), net.Verify())
	}
	closeWindow()
	net.DetachProbe()
	total := 0
	for _, s := range steps {
		total += s
	}
	var sum float64
	for _, c := range roundCPU {
		sum += c
	}
	b.endToEnd("op_ms", "ms", sum/float64(len(roundCPU)))
	b.logValue("stabilize_s", "s", (traced + untraced).Seconds())
	b.logValue("steps_to_stabilize", "steps", float64(total))
	b.heap()
	b.simValue("steps_to_stabilize", steps)
	if b.tr != nil {
		layerStats(b, b.tr.records(), float64(sh.n))
		b.perLayer("obs.overhead_ratio", "ratio", ratio(tracedSteps, traced, untracedSteps, untraced))
	}

	v, err := viewOf(net)
	if err != nil {
		return err
	}
	b.check("clustering recomputed from positions", checkClustering(v))
	b.simValue("snapshot_bytes", restoreCheck(b, net))
	fingerprint(b, net)
	if b.tr != nil {
		b.writeTrace()
		clusterLayer(b, net)
	}
	return nil
}

// ratio is traced steps per second over untraced steps per second.
func ratio(ts int, td time.Duration, us int, ud time.Duration) float64 {
	if td <= 0 || ud <= 0 || us == 0 {
		return math.NaN()
	}
	return (float64(ts) / td.Seconds()) / (float64(us) / ud.Seconds())
}

// churnShape is the churn workload: n nodes under a lifecycle schedule of
// about 1 % of the population per step, light CBR traffic, energy with
// rotation and auto-compaction, stepped steps times.
type churnShape struct {
	n, steps, flows int
}

func churnShapeFor(opt options) churnShape {
	return churnShape{
		n:     scaled(2000, opt.scale, 300),
		steps: scaled(15*opt.seconds, opt.scale, 20),
		flows: 200,
	}
}

func runChurn(b *bench) error {
	if err := churnScript(b, churnShapeFor(b.opt), 0); err != nil {
		return err
	}
	guardParallel(b, func(tb *bench, workers int) error {
		return churnScript(tb, churnShape{n: 600, steps: 40, flows: 10}, workers)
	})
	return nil
}

func churnScript(b *bench, sh churnShape, workers int) error {
	r := rangeFor(sh.n)
	var net *selfstab.Network
	err := b.tr.do("construct", 0, func() (err error) {
		net, err = selfstab.NewRandomNetwork(sh.n, selfstab.WithSeed(b.opt.seed), selfstab.WithRange(r), selfstab.WithCacheTTL(3))
		if err != nil {
			return err
		}
		net.SetParallelism(workers)
		rng := rand.New(rand.NewSource(b.opt.seed))
		flows := make([]selfstab.Flow, 0, sh.flows)
		for _, p := range nearbyPairs(rng, net, sh.flows, 1.5*r, 3*r) {
			flows = append(flows, selfstab.CBRFlow(p[0], p[1], 0.25))
		}
		if err := net.AttachTraffic(selfstab.TrafficConfig{Flows: flows}); err != nil {
			return err
		}
		if err := net.AttachEnergy(referenceEnergy(1, true)); err != nil {
			return err
		}
		if err := net.SetAutoCompact(0.05); err != nil {
			return err
		}
		if _, err := net.Stabilize(maxStabilize); err != nil {
			return err
		}
		rate := float64(sh.n) * 0.01 / 4
		return net.AttachChurn(selfstab.ChurnConfig{ArrivalRate: rate, DepartureRate: rate, CrashRate: rate, SleepRate: rate})
	})
	if err != nil {
		return fmt.Errorf("churn: setup: %w", err)
	}
	b.setupDone()
	if b.tr != nil {
		b.perLayer("topology.build_ms", "ms", topologyBuildMs(net))
	}
	ts0, err := net.TrafficStats()
	if err != nil {
		return err
	}
	if err := steppedWindow(b, net, sh.steps); err != nil {
		return fmt.Errorf("churn: %w", err)
	}
	ts, err := net.TrafficStats()
	if err != nil {
		return err
	}
	b.logValue("packets_delivered", "packets", float64(ts.Delivered-ts0.Delivered))
	b.heap()
	b.check("traffic ledger", checkLedger(ts))
	b.check("sampled routes", checkRoutes(net, samplePairs(net, b.opt.seed, 50)))
	b.simValue("snapshot_bytes", restoreCheck(b, net))
	fingerprint(b, net)

	// Rotation re-elects heads whenever a draining battery crosses a
	// level, so a world with it attached never stays quiet for a whole
	// stability window: detach it with the churn schedule.
	net.DetachChurn()
	net.DetachEnergy()
	if _, err := net.Stabilize(maxStabilize); err != nil {
		return fmt.Errorf("churn: stabilize after detach: %w", err)
	}
	b.check("Verify after churn detached", net.Verify())
	if b.tr != nil {
		if err := servePhase(b, net, serveSeconds); err != nil {
			return fmt.Errorf("churn: %w", err)
		}
		b.writeTrace()
		clusterLayer(b, net)
		routingLayer(b, net)
	}
	return nil
}

// serveSeconds is how long churn's traced run serves its world.
const serveSeconds = 4

// floodShape is the flood workload: a stabilized, quiescent world of n
// nodes carrying hundreds of CBR and Poisson flows plus a head-targeted
// flood, with admission control, per-source caps and energy accounting.
type floodShape struct {
	n, steps, cbr, poisson, bots int
}

func floodShapeFor(opt options) floodShape {
	return floodShape{
		n:       scaled(3000, opt.scale, 300),
		steps:   scaled(500*opt.seconds, opt.scale, 20),
		cbr:     scaled(400, opt.scale, 10),
		poisson: scaled(200, opt.scale, 5),
		bots:    scaled(30, opt.scale, 3),
	}
}

// Flood rates, in packets per step.
const (
	floodCBRRate     = 0.5
	floodPoissonRate = 0.5
	floodBotRate     = 2.0
)

func runFlood(b *bench) error {
	if err := floodScript(b, floodShapeFor(b.opt), 0); err != nil {
		return err
	}
	guardParallel(b, func(tb *bench, workers int) error {
		return floodScript(tb, floodShape{n: 800, steps: 60, cbr: 40, poisson: 20, bots: 6}, workers)
	})
	return nil
}

func floodScript(b *bench, sh floodShape, workers int) error {
	var net *selfstab.Network
	var bots []int64
	err := b.tr.do("construct", 0, func() (err error) {
		net, err = selfstab.NewRandomNetwork(sh.n, selfstab.WithSeed(b.opt.seed), selfstab.WithRange(rangeFor(sh.n)), selfstab.WithCacheTTL(3))
		if err != nil {
			return err
		}
		net.SetParallelism(workers)
		if _, err := net.Stabilize(maxStabilize); err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(b.opt.seed))
		r := net.Range()
		flows := make([]selfstab.Flow, 0, sh.cbr+sh.poisson)
		for i, p := range nearbyPairs(rng, net, sh.cbr+sh.poisson, 2*r, 6*r) {
			if i < sh.cbr {
				flows = append(flows, selfstab.CBRFlow(p[0], p[1], floodCBRRate))
			} else {
				flows = append(flows, selfstab.PoissonFlow(p[0], p[1], floodPoissonRate))
			}
		}
		if err := net.AttachTraffic(selfstab.TrafficConfig{QueueCap: 64, Budget: 4, Flows: flows}); err != nil {
			return err
		}
		if err := net.AttachEnergy(referenceEnergy(1000, false)); err != nil {
			return err
		}
		if err := net.SetTrafficDefense(selfstab.DefenseConfig{HeadAdmission: true, HeadRate: 2, HeadBurst: 8, SourceCap: 1}); err != nil {
			return err
		}
		bots, err = net.FloodHeads(sh.bots, floodBotRate)
		return err
	})
	if err != nil {
		return fmt.Errorf("flood: setup: %w", err)
	}
	b.setupDone()
	if b.tr != nil {
		b.perLayer("topology.build_ms", "ms", topologyBuildMs(net))
	}
	if err := steppedWindow(b, net, sh.steps); err != nil {
		return fmt.Errorf("flood: %w", err)
	}
	ts, err := net.TrafficStats()
	if err != nil {
		return err
	}
	b.logValue("packets_delivered", "packets", float64(ts.Delivered))
	b.heap()
	b.check("traffic ledger", checkLedger(ts))
	// Every flow, the bots' too, ran since attach: no endpoint can die
	// in this workload (no churn, batteries far from empty).
	b.check("CBR offered counts", checkCBR(ts.PerFlow[:sh.cbr], floodCBRRate, sh.steps))
	b.check("flood offered counts", checkCBR(ts.PerFlow[sh.cbr+sh.poisson:], floodBotRate, sh.steps))
	if n := len(ts.PerFlow) - sh.cbr - sh.poisson; n != len(bots) {
		b.check("flood flows", fmt.Errorf("%d flood flows for %d bots", n, len(bots)))
	}
	if ts.Steps != sh.steps {
		b.check("traffic steps", fmt.Errorf("data plane ran %d steps, window was %d", ts.Steps, sh.steps))
	}
	b.check("sampled routes", checkRoutes(net, samplePairs(net, b.opt.seed, 50)))
	b.simValue("snapshot_bytes", restoreCheck(b, net))
	fingerprint(b, net)
	b.check("Verify after flood", net.Verify())
	if b.tr != nil {
		b.writeTrace()
		clusterLayer(b, net)
		routingLayer(b, net)
	}
	return nil
}

// referenceEnergy is the repository's reference cost schedule with the
// given battery capacity.
func referenceEnergy(capacity float64, rotation bool) selfstab.EnergyConfig {
	return selfstab.EnergyConfig{
		Capacity: capacity, IdleHeadCost: 0.002, IdleMemberCost: 0.0002,
		SleepCost: 0.00002, TxCost: 0.0005, RxCost: 0.0002, Rotation: rotation,
	}
}

// steppedWindow steps net steps times, timing every Step. It reports the
// CPU time per step over the window as op_ms (a mean: flood's CBR flows
// inject on alternate steps, so its step times are bimodal and their
// median sits between the modes) and logs the throughput and the
// wall-time quantiles; traced
// runs alternate blocks of steps with and without the probe and report
// the per-layer metrics of the traced blocks instead.
func steppedWindow(b *bench, net *selfstab.Network, steps int) error {
	const block = 10
	window, closeWindow := b.tr.open("window", 0)
	defer closeWindow()
	durs := make([]float64, 0, steps)
	var traced, untraced time.Duration
	var tracedSteps, untracedSteps int
	var aliveSum float64
	start, cpu := time.Now(), cpuNow()
	for i := 0; i < steps; i++ {
		on := b.tr != nil && (i/block)%2 == 0
		if b.tr != nil && i%block == 0 {
			if on {
				b.tr.attach(net)
			} else {
				net.DetachProbe()
			}
		}
		if on {
			alive, _, _ := net.Population()
			aliveSum += float64(alive)
		}
		t := time.Now()
		err := b.tr.do("Step", window, net.Step)
		d := time.Since(t)
		if b.op(err) != nil {
			return fmt.Errorf("step %d: %w", i, err)
		}
		durs = append(durs, ms(d))
		if on {
			traced += d
			tracedSteps++
		} else {
			untraced += d
			untracedSteps++
		}
	}
	elapsed, cpu := time.Since(start), cpuNow()-cpu
	net.DetachProbe()
	b.logValue("steps_per_s", "1/s", float64(steps)/elapsed.Seconds())
	b.logValue("step_wall_p50_ms", "ms", quantile(durs, 0.5))
	b.logValue("step_wall_p90_ms", "ms", quantile(durs, 0.9))
	b.endToEnd("op_ms", "ms", ms(cpu)/float64(steps))
	if b.tr != nil {
		layerStats(b, b.tr.records(), aliveSum/float64(max(tracedSteps, 1)))
		b.perLayer("obs.overhead_ratio", "ratio", ratio(tracedSteps, traced, untracedSteps, untraced))
	}
	return nil
}

// restoreCheck writes the snapshot at the end of the window, restores it
// with ReadSnapshot (decode + replay) and compares the two worlds. It
// reports restore_s and snapshot_kb, and in traced runs the snapshot
// layer's encode and decode times, replayed steps and journal length. It
// returns the snapshot's size in bytes.
func restoreCheck(b *bench, net *selfstab.Network) int {
	var raw []byte
	start := time.Now()
	err := b.tr.do("WriteSnapshot", 0, func() (err error) {
		raw, err = snapshotOf(net)
		return err
	})
	encode := time.Since(start)
	if err != nil {
		b.check("WriteSnapshot", err)
		return 0
	}
	b.endToEnd("snapshot_kb", "KB", float64(len(raw))/1024)
	// Two restores; restore_s is the lesser CPU time, since noise on a
	// shared host only ever slows a run down.
	best, bestWall := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < 2; i++ {
		var restored *selfstab.Network
		c, t := cpuNow(), time.Now()
		err = b.tr.do("ReadSnapshot", 0, func() (err error) {
			restored, err = selfstab.ReadSnapshot(bytes.NewReader(raw))
			return err
		})
		best, bestWall = min(best, cpuNow()-c), min(bestWall, time.Since(t))
		if err != nil {
			b.check("ReadSnapshot", err)
			return 0
		}
		if i == 0 {
			b.check("restored world matches the original", sameWorld(net, restored))
		}
	}
	b.endToEnd("restore_s", "s", best.Seconds())
	b.logValue("restore_wall_s", "s", bestWall.Seconds())
	if b.tr != nil {
		b.perLayer("snapshot.encode_ms", "ms", ms(encode))
		start = time.Now()
		doc, err := snapshot.Decode(bytes.NewReader(raw))
		b.perLayer("snapshot.decode_ms", "ms", ms(time.Since(start)))
		if err != nil {
			b.check("snapshot.Decode", err)
		}
		if err == nil {
			b.perLayer("snapshot.replay_steps", "steps", float64(doc.Header.Step))
			b.perLayer("snapshot.ops", "ops", float64(len(doc.Ops)))
		}
	}
	return len(raw)
}

// fingerprint records the world's simulated state for the determinism
// guard: step count, clustering, population and both ledgers.
func fingerprint(b *bench, net *selfstab.Network) {
	b.simValue("step", net.StepCount())
	h := fnv.New64a()
	_ = json.NewEncoder(h).Encode(net.Clusters())
	b.simValue("clusters_fnv", fmt.Sprintf("%016x", h.Sum64()))
	a, s, d := net.Population()
	b.simValue("population", [3]int{a, s, d})
	if ts, err := net.TrafficStats(); err == nil {
		b.simValue("traffic", ts)
	}
	if es, err := net.EnergyStats(); err == nil {
		b.simValue("energy", es)
	}
}

// guardParallel runs a small instance of the workload's script at one
// worker and at the default worker count and fails the run if any
// simulated value differs: the engine promises bit-identity at any
// parallelism.
func guardParallel(b *bench, script func(tb *bench, workers int) error) {
	var sims [2]map[string]string
	for i, workers := range []int{1, 0} {
		tb := newBench(options{workload: b.opt.workload, seed: b.opt.seed, seconds: b.opt.seconds, scale: b.opt.scale}, io.Discard)
		if err := script(tb, workers); err != nil {
			b.check("determinism twin", err)
			return
		}
		if len(tb.failures) > 0 {
			b.check("determinism twin", fmt.Errorf("%s", tb.failures[0]))
			return
		}
		sims[i] = tb.sim
	}
	b.check("determinism across worker counts", diffSim(sims[0], sims[1]))
}

// nearbyPairs draws count (src, dst) identifier pairs whose distance lies
// in [lo, hi]: short flows that stay deliverable under churn.
func nearbyPairs(rng *rand.Rand, net *selfstab.Network, count int, lo, hi float64) [][2]int64 {
	pts := net.Positions()
	ids := net.IDs()
	out := make([][2]int64, 0, count)
	for len(out) < count {
		u := rng.Intn(len(pts))
		for tries := 0; tries < 200; tries++ {
			v := rng.Intn(len(pts))
			if d := math.Hypot(pts[u].X-pts[v].X, pts[u].Y-pts[v].Y); d >= lo && d <= hi {
				out = append(out, [2]int64{ids[u], ids[v]})
				break
			}
		}
	}
	return out
}

// samplePairs draws count identifier pairs uniformly for the route check.
func samplePairs(net *selfstab.Network, seed int64, count int) [][2]int64 {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	ids := net.IDs()
	out := make([][2]int64, count)
	for i := range out {
		out[i] = [2]int64{ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]}
	}
	return out
}

// topologyBuildMs times topology.FromPoints on the world's own positions
// and range (median of five builds).
func topologyBuildMs(net *selfstab.Network) float64 {
	pts := make([]geom.Point, 0, net.N())
	for _, p := range net.Positions() {
		pts = append(pts, geom.Point{X: p.X, Y: p.Y})
	}
	xs := make([]float64, 5)
	for i := range xs {
		start := time.Now()
		_ = topology.FromPoints(pts, net.Range())
		xs[i] = ms(time.Since(start))
	}
	return median(xs)
}

// clusterLayer times Network.Stats (what /stats/clustering serves) and
// the Verify oracle, both outside every timed window.
func clusterLayer(b *bench, net *selfstab.Network) {
	start := time.Now()
	_ = net.Stats()
	b.perLayer("cluster.stats_ms", "ms", ms(time.Since(start)))
	start = time.Now()
	err := net.Verify()
	b.perLayer("cluster.verify_ms", "ms", ms(time.Since(start)))
	b.check("Verify", err)
}

// routingLayer measures the routing table outside the data plane: the
// first Route after a state-changing step pays the table rebuild, later
// ones are cached lookups. It detaches traffic so no step rebuilds the
// table first, so it runs last, after every simulated value is taken.
func routingLayer(b *bench, net *selfstab.Network) {
	net.DetachTraffic()
	pairs := samplePairs(net, b.opt.seed+1, 200)
	var rebuild, lookup []float64
	for k := 0; k < 5; k++ {
		net.InjectFaults(0.01)
		if err := net.Step(); err != nil {
			b.check("routing probe step", err)
			return
		}
		start := time.Now()
		_, _ = net.Route(pairs[0][0], pairs[0][1])
		rebuild = append(rebuild, ms(time.Since(start)))
		for _, p := range pairs[1:] {
			start := time.Now()
			_, _ = net.Route(p[0], p[1])
			lookup = append(lookup, float64(time.Since(start))/1e3)
		}
	}
	b.perLayer("routing.rebuild_ms", "ms", median(rebuild))
	b.perLayer("routing.lookup_us", "us", median(lookup))
}
