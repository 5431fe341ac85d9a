// Datacenter allocation: the paper's Section 1 motivation made concrete.
//
// A heterogeneous cluster mixes big, medium, and little node types. Jobs
// arrive with only their portable software profiles attached (collected once
// on any machine, Google-wide-Profiler style). An inferred hardware-software
// model predicts each (job, node type) pairing's performance, and the
// scheduler assigns jobs to the node type that minimizes predicted CPI
// under per-type capacity limits.
//
// The example quantifies the data-to-decision link: model-guided placement
// is compared against random placement and against an oracle that simulates
// every pairing.
//
//	go run ./examples/datacenter
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"

	"hsmodel/internal/trace"
	"hsmodel/pkg/hsmodel"
)

// nodeType is a hardware flavor available in the cluster.
type nodeType struct {
	name     string
	cfg      hsmodel.Config
	capacity int // how many jobs this type can host
}

// jobQueue is the 21 jobs the cluster places, each a shard of one
// application.
var jobQueue = []struct {
	app   string
	shard int
}{
	{"sjeng", 33}, {"gemsFDTD", 11}, {"bzip2", 18}, {"gemsFDTD", 37}, {"astar", 8},
	{"omnetpp", 26}, {"gemsFDTD", 22}, {"gemsFDTD", 34}, {"sjeng", 3}, {"hmmer", 37},
	{"bwaves", 16}, {"hmmer", 9}, {"bzip2", 35}, {"omnetpp", 15}, {"hmmer", 8},
	{"astar", 36}, {"omnetpp", 27}, {"gemsFDTD", 27}, {"sjeng", 15}, {"bzip2", 39},
	{"sjeng", 15},
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "datacenter:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, stdout io.Writer) error {
	// Cluster: three node flavors from the Table 2 space.
	nodes := []nodeType{
		{"big", hsmodel.ConfigFromIndices(hsmodel.Indices{3, 5, 2, 4, 3, 3, 4, 0, 3, 1, 2, 1, 3}), 5},
		{"medium", hsmodel.Baseline(), 7},
		{"little", hsmodel.ConfigFromIndices(hsmodel.Indices{1, 1, 1, 1, 0, 0, 1, 3, 0, 0, 0, 0, 0}), 9},
	}

	// Train the shared model from sparse historical profiles.
	apps := trace.SPEC2006()
	col := &hsmodel.Collector{ShardLen: 50_000, ShardPool: 40}
	fmt.Fprintln(stdout, "bootstrapping model from historical profiles...")
	m := hsmodel.New(col.Collect(apps, 100, 11),
		hsmodel.WithSearch(hsmodel.SearchParams{PopulationSize: 30, Generations: 8, Seed: 3}))
	if err := m.Train(ctx); err != nil {
		return err
	}

	// Simulate every (job, node type) placement once: the ground truth
	// the placements are scored by. The scheduler sees only each job's
	// shard profile (its observed behavior), which is portable: the same
	// whichever machine it is taken on.
	appID := make(map[string]int, len(apps))
	for i, a := range apps {
		appID[a.Name] = i
	}
	var ids, shards []int
	var cfgs []hsmodel.Config
	for _, q := range jobQueue {
		for _, n := range nodes {
			ids, shards, cfgs = append(ids, appID[q.app]), append(shards, q.shard), append(cfgs, n.cfg)
		}
	}
	measured := col.CollectPairs(apps, ids, shards, cfgs)
	type job struct {
		name   string
		x      hsmodel.Characteristics
		actual []float64 // simulated CPI on each node type
	}
	jobs := make([]job, len(jobQueue))
	for k, q := range jobQueue {
		placements := measured[k*len(nodes):][:len(nodes)]
		jobs[k] = job{name: fmt.Sprintf("%s#%d", q.app, k), x: placements[0].X}
		for _, s := range placements {
			jobs[k].actual = append(jobs[k].actual, s.CPI)
		}
	}

	// Model-guided placement: greedily assign each job to the node type
	// with the lowest predicted CPI that still has capacity. Jobs with the
	// most to gain from big nodes (largest predicted spread) pick first.
	type pref struct {
		j      job
		pred   []float64
		spread float64
	}
	snap := m.Snapshot()
	prefs := make([]pref, len(jobs))
	for i, j := range jobs {
		p := pref{j: j, pred: make([]float64, len(nodes))}
		for k, n := range nodes {
			v, err := snap.PredictShard(j.x, n.cfg)
			if err != nil {
				return err
			}
			p.pred[k] = v
		}
		p.spread = p.pred[2] - p.pred[0]
		prefs[i] = p
	}
	sort.Slice(prefs, func(a, b int) bool { return prefs[a].spread > prefs[b].spread })

	used := make([]int, len(nodes))
	var modelCPI, randomCPI, oracleCPI float64
	fmt.Fprintln(stdout, "\nplacements (model-guided):")
	for _, p := range prefs {
		// Pick the best predicted node with free capacity.
		best := -1
		for k := range nodes {
			if used[k] >= nodes[k].capacity {
				continue
			}
			if best < 0 || p.pred[k] < p.pred[best] {
				best = k
			}
		}
		used[best]++
		modelCPI += p.j.actual[best]
		fmt.Fprintf(stdout, "  %-12s -> %-6s predicted %.2f, actual %.2f\n",
			p.j.name, nodes[best].name, p.pred[best], p.j.actual[best])

		// Random baseline: a random capacity-respecting assignment places
		// this job on type k with probability capacity_k / total slots.
		var r, slots float64
		for k := range nodes {
			r += float64(nodes[k].capacity) * p.j.actual[k]
			slots += float64(nodes[k].capacity)
		}
		randomCPI += r / slots

		// Oracle: the best of all three (no capacity limits — an
		// unreachable lower bound).
		o := p.j.actual[0]
		for _, v := range p.j.actual[1:] {
			if v < o {
				o = v
			}
		}
		oracleCPI += o
	}

	n := float64(len(jobs))
	fmt.Fprintf(stdout, "\nmean CPI: model-guided %.3f | random %.3f | oracle (no capacity) %.3f\n",
		modelCPI/n, randomCPI/n, oracleCPI/n)
	fmt.Fprintf(stdout, "model-guided placement improves on random by %.1f%%\n",
		100*(randomCPI-modelCPI)/randomCPI)
	return nil
}
