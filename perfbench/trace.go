package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"selfstab"
	"selfstab/internal/obs"
)

// ringSize bounds the step records a traced run keeps; every workload's
// traced window fits in it, so the per-layer means cover every step.
const ringSize = 1 << 15

// span is one call the benchmark made into the program.
type span struct {
	name   string
	id     int
	parent int   // 0: a root span
	req    int64 // request id of an HTTP span (0 otherwise)
	start  time.Time
	dur    time.Duration
}

// tracer keeps the benchmark's own spans in memory and the program's
// collector; both are written out as one Chrome trace when the run ends.
// A nil tracer records nothing, so untraced runs pay one nil check.
type tracer struct {
	mu    sync.Mutex
	spans []span
	next  int

	col      *obs.Collector
	colEpoch time.Time // when the collector started its clock
}

func newTracer() *tracer { return &tracer{} }

// do runs fn as a span named name under parent and returns fn's error.
func (t *tracer) do(name string, parent int, fn func() error) error {
	if t == nil {
		return fn()
	}
	start := time.Now()
	err := fn()
	t.record(name, parent, 0, start, time.Since(start))
	return err
}

// open starts a span whose children are recorded with its id; close it
// with the returned function.
func (t *tracer) open(name string, parent int) (id int, closeSpan func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Now()
	t.mu.Lock()
	t.next++
	id = t.next
	t.mu.Unlock()
	return id, func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		t.spans = append(t.spans, span{name: name, id: id, parent: parent, start: start, dur: time.Since(start)})
	}
}

// record stores a finished span.
func (t *tracer) record(name string, parent int, req int64, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{name: name, id: t.next, parent: parent, req: req, start: start, dur: dur})
}

// attach installs the run's collector on net through the public probe
// plane, creating it on first use. It is a no-op on a nil tracer.
func (t *tracer) attach(net *selfstab.Network) {
	if t == nil {
		return
	}
	if t.col == nil {
		t.colEpoch = time.Now()
		t.col = selfstab.NewCollector(ringSize)
	}
	net.AttachProbe(t.col)
}

// records returns every retained step record.
func (t *tracer) records() []obs.StepRecord {
	if t == nil || t.col == nil {
		return nil
	}
	return t.col.Recent(0)
}

// writeTrace writes the program's step trace (the collector's
// WriteTrace) and the benchmark's own spans as one Chrome trace-event
// file: the program on pid 1, the benchmark's calls on pid 2, HTTP
// requests on their own track.
func (t *tracer) writeTrace(path string) error {
	var buf bytes.Buffer
	if t.col != nil {
		if err := t.col.WriteTrace(&buf, 0); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	doc := struct {
		TraceEvents     []any  `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}{DisplayTimeUnit: "ms"}
	if buf.Len() > 0 {
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			return fmt.Errorf("parse program trace: %w", err)
		}
	}
	doc.TraceEvents = append(doc.TraceEvents,
		map[string]any{"name": "process_name", "ph": "M", "pid": 2, "args": map[string]any{"name": "perfbench"}})
	t.mu.Lock()
	for _, s := range t.spans {
		args := map[string]any{"id": s.id, "parent": s.parent}
		tid := 0
		if s.req != 0 {
			args["request"] = s.req
			tid = 1
		}
		doc.TraceEvents = append(doc.TraceEvents, map[string]any{
			"name": s.name, "ph": "X", "pid": 2, "tid": tid,
			"ts":  float64(s.start.Sub(t.colEpoch)) / 1e3,
			"dur": float64(s.dur) / 1e3, "args": args,
		})
	}
	t.mu.Unlock()
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// writeTrace writes the traced run's Chrome trace into the output
// directory and names it on the log.
func (b *bench) writeTrace() {
	path := filepath.Join(b.opt.out, fmt.Sprintf("trace-%s-seed%d.json", b.opt.workload, b.opt.seed))
	if err := b.tr.writeTrace(path); err != nil {
		b.check("trace file", err)
		return
	}
	fmt.Fprintf(b.log, "trace: %s\n", path)
}

// layerStats folds step records into the per-layer engine, traffic,
// energy and compaction metrics. meanAlive is the operating population
// over the traced steps (the denominator of engine.exec_per_alive).
func layerStats(b *bench, recs []obs.StepRecord, meanAlive float64) {
	if len(recs) == 0 {
		b.check("trace", fmt.Errorf("no step records"))
		return
	}
	n := float64(len(recs))
	var phase [obs.NumPhases]float64
	var ctr [obs.NumCounters]float64
	var changed, fallbacks float64
	var compactNs, compactions float64
	for _, r := range recs {
		for p := obs.Phase(0); p < obs.NumPhases; p++ {
			if r.Phases[p].Ok {
				phase[p] += float64(r.Phases[p].DurNs)
			}
		}
		for c := obs.Counter(0); c < obs.NumCounters; c++ {
			ctr[c] += float64(r.Counters[c])
		}
		if r.Changed {
			changed++
		}
		if r.Counters[obs.CtrDenseFallback] > 0 {
			fallbacks++
		}
		if r.Phases[obs.PhaseCompact].Ok {
			compactNs += float64(r.Phases[obs.PhaseCompact].DurNs)
			compactions++
		}
	}
	perStepMs := func(p obs.Phase) float64 { return phase[p] / n / 1e6 }
	b.perLayer("engine.churn_ms", "ms", perStepMs(obs.PhaseChurn))
	b.perLayer("engine.frame_ms", "ms", perStepMs(obs.PhaseFrame))
	b.perLayer("engine.halo_ms", "ms", perStepMs(obs.PhaseHalo))
	b.perLayer("engine.ingest_ms", "ms", perStepMs(obs.PhaseIngest))
	b.perLayer("engine.frontier_nodes", "nodes", ctr[obs.CtrFrontier]/n)
	b.perLayer("engine.exec_nodes", "nodes", ctr[obs.CtrExec]/n)
	b.perLayer("engine.dense_fallbacks", "steps", fallbacks)
	if meanAlive > 0 {
		b.perLayer("engine.exec_per_alive", "ratio", ctr[obs.CtrExec]/n/meanAlive)
	}
	b.perLayer("engine.halo_cross", "count", ctr[obs.CtrHaloCross]/n)
	b.perLayer("routing.rebuilds", "count", changed)
	if phase[obs.PhaseTraffic] > 0 {
		b.perLayer("traffic.phase_ms", "ms", perStepMs(obs.PhaseTraffic))
		b.perLayer("traffic.forwarded", "packets", ctr[obs.CtrTrafficForwarded]/n)
		b.perLayer("traffic.queue_occupancy", "packets", ctr[obs.CtrQueueOccupancy]/n)
		b.perLayer("traffic.admission_rejects", "packets", ctr[obs.CtrAdmissionRejects])
	}
	if phase[obs.PhaseEnergy] > 0 {
		b.perLayer("energy.phase_ms", "ms", perStepMs(obs.PhaseEnergy))
	}
	if compactions > 0 {
		b.perLayer("compact.phase_ms", "ms", compactNs/compactions/1e6)
	}
	b.perLayer("compact.count", "count", compactions)
}
