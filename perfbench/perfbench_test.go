package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"selfstab"
	"selfstab/internal/snapshot"
)

// runToy runs one workload at toy scale and returns its parsed result.
func runToy(t *testing.T, workload string, trace int, out string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "2", "--scale", "0.05",
		"--trace", string(rune('0' + trace)), "--out", out}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace=%d: exit %d\nstdout:\n%s\nstderr:\n%s", workload, trace, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("%s: result %+v", workload, res)
	}
	return res
}

// TestWorkloadsToyScale runs every workload untraced, twice (the second
// run meets the determinism record of the first), then traced, with
// every check on.
func TestWorkloadsToyScale(t *testing.T) {
	for _, w := range []string{"recover", "churn", "flood"} {
		t.Run(w, func(t *testing.T) {
			out := t.TempDir()
			for i := 0; i < 2; i++ {
				res := runToy(t, w, 0, out)
				if len(res.Metrics) != len(endToEndUnits) {
					t.Errorf("metrics %v, want %v", res.Metrics, endToEndUnits)
				}
				for name, unit := range endToEndUnits {
					if m, ok := res.Metrics[name]; !ok || !(m.Value > 0) || m.Unit != unit {
						t.Errorf("metric %s = %+v", name, m)
					}
				}
			}
			res := runToy(t, w, 1, out)
			if len(res.Metrics) != len(perLayerUnits) {
				t.Errorf("traced metrics %v, want %v", res.Metrics, perLayerUnits)
			}
			for _, name := range []string{"topology.build_ms", "obs.overhead_ratio", "cluster.verify_ms", "snapshot.encode_ms"} {
				if m := res.Metrics[name]; !(m.Value > 0) {
					t.Errorf("traced run: %s = %+v", name, m)
				}
			}
			if _, err := os.Stat(filepath.Join(out, "trace-"+w+"-seed3.json")); err != nil {
				t.Errorf("no trace file: %v", err)
			}
		})
	}
}

// stabilized builds a small stabilized world with traffic attached.
func stabilized(t *testing.T) *selfstab.Network {
	t.Helper()
	net, err := selfstab.NewRandomNetwork(300, selfstab.WithSeed(5), selfstab.WithRange(rangeFor(300)), selfstab.WithCacheTTL(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Stabilize(10000); err != nil {
		t.Fatal(err)
	}
	ids := net.IDs()
	flows := []selfstab.Flow{selfstab.CBRFlow(ids[0], ids[1], 0.5), selfstab.CBRFlow(ids[2], ids[3], 0.25)}
	if err := net.AttachTraffic(selfstab.TrafficConfig{Flows: flows}); err != nil {
		t.Fatal(err)
	}
	net.InjectFaults(0.2)
	if _, err := net.Stabilize(10000); err != nil {
		t.Fatal(err)
	}
	return net
}

func TestCheckClusteringCatchesPerturbedDensity(t *testing.T) {
	net := stabilized(t)
	v, err := viewOf(net)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkClustering(v); err != nil {
		t.Fatalf("legitimate world fails: %v", err)
	}
	v.state[17].Density += 1e-6
	if err := checkClustering(v); err == nil || !strings.Contains(err.Error(), "density") {
		t.Fatalf("perturbed density passes: %v", err)
	}
}

func TestCheckClusteringCatchesWrongHead(t *testing.T) {
	net := stabilized(t)
	v, err := viewOf(net)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range v.state {
		if !st.IsHead {
			v.state[i].HeadID = st.ID + 1e9
			break
		}
	}
	if err := checkClustering(v); err == nil {
		t.Fatal("a member carrying a foreign head passes")
	}
}

func TestCheckPathCatchesLongHop(t *testing.T) {
	net := stabilized(t)
	ids := net.IDs()
	pts := net.Positions()
	pos := map[int64]selfstab.Point{}
	alive := map[int64]bool{}
	for i, id := range ids {
		pos[id], alive[id] = pts[i], true
	}
	if err := checkRoutes(net, [][2]int64{{ids[0], ids[1]}, {ids[2], ids[3]}}); err != nil {
		t.Fatalf("program routes fail: %v", err)
	}
	// A hop between the two nodes farthest apart in x.
	lo, hi := 0, 0
	for i, p := range pts {
		if p.X < pts[lo].X {
			lo = i
		}
		if p.X > pts[hi].X {
			hi = i
		}
	}
	path := []int64{ids[lo], ids[hi]}
	if err := checkPath(path, ids[lo], ids[hi], pos, alive, net.Range()); err == nil || !strings.Contains(err.Error(), "range") {
		t.Fatalf("a hop beyond the radio range passes: %v", err)
	}
	alive[ids[hi]] = false
	if err := checkPath([]int64{ids[hi]}, ids[hi], ids[hi], pos, alive, net.Range()); err == nil {
		t.Fatal("a path through a non-alive node passes")
	}
}

func TestCheckLedgerCatchesMissingPacket(t *testing.T) {
	net := stabilized(t)
	if err := net.Run(30); err != nil {
		t.Fatal(err)
	}
	ts, err := net.TrafficStats()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkLedger(ts); err != nil {
		t.Fatalf("program ledger fails: %v", err)
	}
	if ts.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	ts.Delivered--
	if err := checkLedger(ts); err == nil {
		t.Fatal("a ledger missing one packet passes")
	}
	if err := checkCBR(ts.PerFlow[:1], 0.5, ts.Steps); err != nil {
		t.Fatalf("CBR flow fails: %v", err)
	}
	if err := checkCBR(ts.PerFlow[:1], 0.5, ts.Steps+4); err == nil {
		t.Fatal("a CBR flow two packets short passes")
	}
}

func TestRestoreCheckCatchesLostOp(t *testing.T) {
	net := stabilized(t)
	raw, err := snapshotOf(net)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := selfstab.ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if err := sameWorld(net, restored); err != nil {
		t.Fatalf("faithful restore fails: %v", err)
	}
	doc, err := snapshot.Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for k, op := range doc.Ops {
		if op.Kind == snapshot.OpFaults {
			doc.Ops = append(doc.Ops[:k], doc.Ops[k+1:]...)
			break
		}
	}
	var buf bytes.Buffer
	if err := doc.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	lossy, err := selfstab.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameWorld(net, lossy); err == nil {
		t.Fatal("a restore whose journal lost one op passes")
	}
}

func TestDeterminismGuardCatchesDrift(t *testing.T) {
	opt := options{workload: "churn", seed: 9, seconds: 3, scale: 1, out: t.TempDir()}
	sim := map[string]string{"packets_delivered": "120", "step": "400"}
	if err := guardAcrossRuns(opt, sim); err != nil {
		t.Fatalf("first record: %v", err)
	}
	if err := guardAcrossRuns(opt, sim); err != nil {
		t.Fatalf("same values: %v", err)
	}
	drift := map[string]string{"packets_delivered": "121", "step": "400"}
	if err := guardAcrossRuns(opt, drift); err == nil || !strings.Contains(err.Error(), "packets_delivered") {
		t.Fatalf("drift passes: %v", err)
	}
}

// TestManifestMatches pins the metric lists the runs print to the ones
// BENCHMARK.json declares.
func TestManifestMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		declared []struct{ Name, Unit string }
		printed  map[string]string
	}{{man.EndToEnd, endToEndUnits}, {man.PerLayer, perLayerUnits}} {
		if len(set.declared) != len(set.printed) {
			t.Errorf("manifest declares %d metrics, runs print %d", len(set.declared), len(set.printed))
		}
		for _, m := range set.declared {
			if set.printed[m.Name] != m.Unit {
				t.Errorf("metric %s: manifest unit %q, printed %q", m.Name, m.Unit, set.printed[m.Name])
			}
		}
	}
	if len(man.Workloads) != len(workloads) {
		t.Errorf("manifest declares %d workloads, the benchmark has %d", len(man.Workloads), len(workloads))
	}
	for _, w := range man.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("manifest workload %s is not a workload", w.Name)
		}
	}
}
