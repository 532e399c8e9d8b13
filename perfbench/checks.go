package main

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"

	"selfstab"
)

// Checks made apart from the program: each recomputes what it checks
// from the program's raw outputs (positions, range, per-node state,
// ledgers) with its own code, or tests a property the method must have.

// worldView is the raw output the clustering check reads.
type worldView struct {
	pts   []selfstab.Point
	r     float64
	state []selfstab.NodeState
}

func viewOf(net *selfstab.Network) (worldView, error) {
	v := worldView{pts: net.Positions(), r: net.Range(), state: make([]selfstab.NodeState, net.N())}
	for i := range v.state {
		st, err := net.State(i)
		if err != nil {
			return v, err
		}
		v.state[i] = st
	}
	return v, nil
}

// neighbors builds the unit-disk graph over the alive nodes with a cell
// grid of side r: u and v are adjacent iff their Euclidean distance is at
// most r. Lists ascend by index.
func neighbors(v worldView) [][]int {
	n := len(v.pts)
	adj := make([][]int, n)
	if n == 0 || v.r <= 0 {
		return adj
	}
	minX, minY := math.Inf(1), math.Inf(1)
	for _, p := range v.pts {
		minX, minY = math.Min(minX, p.X), math.Min(minY, p.Y)
	}
	type cell struct{ x, y int }
	at := func(p selfstab.Point) cell {
		return cell{int(math.Floor((p.X - minX) / v.r)), int(math.Floor((p.Y - minY) / v.r))}
	}
	grid := map[cell][]int{}
	for i, p := range v.pts {
		if v.state[i].Status == selfstab.NodeAlive {
			c := at(p)
			grid[c] = append(grid[c], i)
		}
	}
	r2 := v.r * v.r
	for u, p := range v.pts {
		if v.state[u].Status != selfstab.NodeAlive {
			continue
		}
		c := at(p)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, w := range grid[cell{c.x + dx, c.y + dy}] {
					q := v.pts[w]
					ddx, ddy := p.X-q.X, p.Y-q.Y
					if w != u && ddx*ddx+ddy*ddy <= r2 {
						adj[u] = append(adj[u], w)
					}
				}
			}
		}
	}
	for u := range adj {
		slices.Sort(adj[u])
	}
	return adj
}

// checkClustering recomputes the legitimate configuration from positions
// and range alone and compares it with every alive node's state:
//   - density is the closed-neighbourhood link ratio: links with one end
//     in N(u) and the other in N(u) ∪ {u}, over |N(u)|;
//   - with fusion off, u is a head exactly when it is the ≺-maximum of
//     its closed neighbourhood (higher density, then lower color, then
//     lower id);
//   - every other node carries the head of its ≺-maximal neighbour, and
//     its parent chain reaches that head.
func checkClustering(v worldView) error {
	adj := neighbors(v)
	n := len(v.pts)
	isNbr := make([]bool, n)
	dens := make([]float64, n)
	for u := range adj {
		if len(adj[u]) == 0 {
			continue
		}
		for _, w := range adj[u] {
			isNbr[w] = true
		}
		links := len(adj[u])
		for _, w := range adj[u] {
			for _, x := range adj[w] {
				if x > w && isNbr[x] {
					links++
				}
			}
		}
		for _, w := range adj[u] {
			isNbr[w] = false
		}
		dens[u] = float64(links) / float64(len(adj[u]))
	}
	byID := make(map[int64]int, n)
	for i, st := range v.state {
		byID[st.ID] = i
	}
	greater := func(a, b int) bool { // a ≻ b
		sa, sb := v.state[a], v.state[b]
		if dens[a] != dens[b] {
			return dens[a] > dens[b]
		}
		if sa.Color != sb.Color {
			return sa.Color < sb.Color
		}
		return sa.ID < sb.ID
	}
	for u, st := range v.state {
		if st.Status != selfstab.NodeAlive {
			continue
		}
		if math.Abs(st.Density-dens[u]) > 1e-9 {
			return fmt.Errorf("node %d density %v, recomputed %v", st.ID, st.Density, dens[u])
		}
		best := u
		for _, w := range adj[u] {
			if greater(w, best) {
				best = w
			}
		}
		if best == u {
			if !st.IsHead || st.HeadID != st.ID {
				return fmt.Errorf("node %d is its neighbourhood's maximum but heads %d", st.ID, st.HeadID)
			}
			continue
		}
		if st.IsHead {
			return fmt.Errorf("node %d is a head below its neighbour %d", st.ID, v.state[best].ID)
		}
		if st.HeadID != v.state[best].HeadID {
			return fmt.Errorf("node %d heads %d, its maximal neighbour %d heads %d", st.ID, st.HeadID, v.state[best].ID, v.state[best].HeadID)
		}
		cur := u
		for hops := 0; v.state[cur].ID != st.HeadID; hops++ {
			next, ok := byID[v.state[cur].ParentID]
			if !ok || hops > n || next == cur {
				return fmt.Errorf("node %d: parent chain stops at %d before head %d", st.ID, v.state[cur].ID, st.HeadID)
			}
			cur = next
		}
	}
	return nil
}

// checkLedger tests packet conservation: every offered packet is
// delivered, dropped for a named reason, or still queued. InFlight is
// counted from the queues, the rest from the ledger's counters, so the
// two sides come by independent paths. The per-flow rows must add up to
// the totals as well.
func checkLedger(ts selfstab.TrafficStats) error {
	fates := ts.Delivered + ts.DropsQueue + ts.DropsNoRoute + ts.DropsTTL +
		ts.DropsDeadEndpoint + ts.DropsAdmission + ts.DropsRateLimit + ts.InFlight
	if ts.Offered != fates {
		return fmt.Errorf("offered %d, delivered+dropped+in flight %d", ts.Offered, fates)
	}
	var off, del, drop int64
	for _, f := range ts.PerFlow {
		off += f.Offered
		del += f.Delivered
		drop += f.Dropped
	}
	if off != ts.Offered || del != ts.Delivered {
		return fmt.Errorf("per-flow offered %d delivered %d, totals %d and %d", off, del, ts.Offered, ts.Delivered)
	}
	if off-del-drop != ts.InFlight {
		return fmt.Errorf("per-flow in flight %d, queues hold %d", off-del-drop, ts.InFlight)
	}
	return nil
}

// checkCBR tests that each CBR flow offered rate packets per step for
// the steps it ran, within one packet; steps is counted by the benchmark.
func checkCBR(flows []selfstab.FlowTrafficStats, rate float64, steps int) error {
	want := rate * float64(steps)
	for _, f := range flows {
		if math.Abs(float64(f.Offered)-want) > 1 {
			return fmt.Errorf("flow %d→%d offered %d, rate %g × %d steps = %g", f.SrcID, f.DstID, f.Offered, rate, steps, want)
		}
	}
	return nil
}

// checkPath tests one Route answer: it starts and ends at the asked
// endpoints and hops only between alive nodes within radio range by
// Euclidean distance.
func checkPath(path []int64, src, dst int64, pos map[int64]selfstab.Point, alive map[int64]bool, r float64) error {
	if len(path) == 0 || path[0] != src || path[len(path)-1] != dst {
		return fmt.Errorf("route %d→%d is %v", src, dst, path)
	}
	for i, id := range path {
		if !alive[id] {
			return fmt.Errorf("route %d→%d visits non-alive node %d", src, dst, id)
		}
		if i == 0 {
			continue
		}
		a, b := pos[path[i-1]], pos[id]
		if dx, dy := a.X-b.X, a.Y-b.Y; dx*dx+dy*dy > r*r {
			return fmt.Errorf("route %d→%d hops %d→%d over %.5f > range %.5f", src, dst, path[i-1], id, math.Hypot(dx, dy), r)
		}
	}
	return nil
}

// checkRoutes asks Route for each pair of alive nodes and checks every
// path it returns. Pairs the program reports unreachable
// are skipped; at least one path must come back.
func checkRoutes(net *selfstab.Network, pairs [][2]int64) error {
	pts := net.Positions()
	ids := net.IDs()
	pos := make(map[int64]selfstab.Point, len(ids))
	alive := make(map[int64]bool, len(ids))
	for i, id := range ids {
		pos[id] = pts[i]
		st, err := net.State(i)
		if err != nil {
			return err
		}
		alive[id] = st.Status == selfstab.NodeAlive
	}
	found := 0
	for _, p := range pairs {
		if !alive[p[0]] || !alive[p[1]] {
			continue
		}
		path, err := net.Route(p[0], p[1])
		if err != nil {
			continue
		}
		found++
		if err := checkPath(path, p[0], p[1], pos, alive, net.Range()); err != nil {
			return err
		}
	}
	if found == 0 {
		return fmt.Errorf("no sampled route came back")
	}
	return nil
}

// sameWorld compares a restored world with the original at the snapshot
// step: step count, clusters, population and both ledgers.
func sameWorld(a, b *selfstab.Network) error {
	if a.StepCount() != b.StepCount() {
		return fmt.Errorf("step %d vs %d", a.StepCount(), b.StepCount())
	}
	if !reflect.DeepEqual(a.Clusters(), b.Clusters()) {
		return fmt.Errorf("clusters differ")
	}
	a1, a2, a3 := a.Population()
	b1, b2, b3 := b.Population()
	if a1 != b1 || a2 != b2 || a3 != b3 {
		return fmt.Errorf("population %d/%d/%d vs %d/%d/%d", a1, a2, a3, b1, b2, b3)
	}
	ta, errA := a.TrafficStats()
	tb, errB := b.TrafficStats()
	if (errA == nil) != (errB == nil) || !reflect.DeepEqual(ta, tb) {
		return fmt.Errorf("traffic ledgers differ")
	}
	ea, errA := a.EnergyStats()
	eb, errB := b.EnergyStats()
	if (errA == nil) != (errB == nil) || !reflect.DeepEqual(ea, eb) {
		return fmt.Errorf("energy ledgers differ")
	}
	return nil
}

// snapshotOf writes net's snapshot into memory.
func snapshotOf(net *selfstab.Network) ([]byte, error) {
	var buf bytes.Buffer
	if err := net.WriteSnapshot(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
