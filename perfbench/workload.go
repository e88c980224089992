package main

import (
	"fmt"

	"spal/internal/ip"
	"spal/internal/lpm"
	"spal/internal/lpm/engines"
	"spal/internal/router"
	"spal/internal/rtable"
	"spal/internal/stats"
	"spal/internal/trace"
)

// Shape of the lookup driver and the update plane; README.md gives the
// reasons for each figure.
const (
	numLCs      = 16   // ψ, the paper's line-card count
	batchSize   = 64   // addresses per LookupBatchInto call
	updateBatch = 10   // route-update events per ApplyUpdates call
	churnRate   = 2    // offered update batches per second on route_churn
	roundCalls  = 1024 // calls per round; a round's p99 has 10 calls beyond it
	rateWindow  = 16   // calls per throughput sample (see lookupPlane.rates)
	minRounds   = 5    // measured rounds a run makes at the least
)

// workload is one set of inputs, run through the router's lookup plane,
// its update plane and the cycle model.
type workload struct {
	name string
	// uniform draws destinations uniformly over the table's prefixes;
	// otherwise they come from the D_75 trace preset.
	uniform bool
	// churn applies updates beside the lookups (open loop) instead of
	// after them on the idle router (closed loop).
	churn bool
	// engine names the forwarding engine; "" is the router's default.
	engine string
	// calls is the number of 64-address calls in one cycle of the
	// pre-generated input, a multiple of numLCs and of roundCalls.
	calls int
	// warm is the number of unmeasured rounds before measuring, about
	// half a second at this commit, after which per-round throughput is
	// flat.
	warm int
	// quiet is the number of update batches applied to each router
	// after its lookups (not on route_churn).
	quiet int
	// simPackets is the per-LC packet count of one simulation.
	simPackets int
}

var workloads = map[string]*workload{
	"hot_zipf":     {name: "hot_zipf", calls: 16384, warm: 8, quiet: 16, simPackets: 40000},
	"cold_uniform": {name: "cold_uniform", uniform: true, calls: 32768, warm: 2, quiet: 16, simPackets: 8000},
	"route_churn":  {name: "route_churn", churn: true, calls: 16384, warm: 8, simPackets: 20000},
	"paper_sim":    {name: "paper_sim", engine: "lulea", calls: 16384, warm: 8, quiet: 3, simPackets: 20000},
}

// routerOptions is the router every workload builds: RT2 partitioned over
// 16 line cards with the default LR-cache, everything else at its
// default except the engine paper_sim names.
func (w *workload) routerOptions(extra ...router.Option) []router.Option {
	opts := []router.Option{router.WithLCs(numLCs), router.WithDefaultCache()}
	if w.engine != "" {
		opts = append(opts, router.WithEngineName(w.engine))
	}
	return append(opts, extra...)
}

// builder returns the engine builder the router uses for this workload.
func (w *workload) builder() (lpm.Builder, error) {
	if w.engine == "" {
		return lpm.NewReferenceEngine, nil
	}
	return engines.Lookup(w.engine)
}

// inputs is everything a run feeds the program, generated before any
// timing starts.
type inputs struct {
	tbl *rtable.Table
	// addrs holds w.calls calls of 64 addresses; call p is submitted at
	// arrival LC p%numLCs and its addresses were drawn for that LC.
	addrs []ip.Addr
	// probes holds one address inside each update's prefix; the final
	// exact pass looks them up after the last update.
	probes []ip.Addr
	// batches is the pre-generated update stream in ApplyUpdates batches.
	batches [][]rtable.Update
	checker *Checker
}

// numBatches is how many update batches a run may apply.
func (w *workload) numBatches(seconds float64) int {
	if !w.churn {
		return w.quiet
	}
	return int(float64(churnRate)*seconds) + 2*churnRate
}

func makeInputs(w *workload, seed uint64, seconds float64) (*inputs, error) {
	in := &inputs{tbl: rtable.RT2()}
	root := stats.NewRNG(seed*0x9e3779b97f4a7c15 + 0x5ba1)
	in.addrs = make([]ip.Addr, w.calls*batchSize)
	if w.uniform {
		for i := range in.addrs {
			in.addrs[i] = in.tbl.RandomMatchedAddr(root)
		}
	} else {
		// The D_75 model: one Zipf pool shared by every LC, and per LC a
		// stream of packet trains over it. The streams are drawn here
		// from forked generators rather than by trace.NewSynthetic,
		// whose per-LC streams are shifted copies of one another for
		// most seeds (see README.md).
		tc := trace.PresetConfig(trace.D75)
		tc.Seed = root.Uint64()
		pool := trace.NewPool(in.tbl, tc)
		repeat := 1 - 1/tc.MeanTrain
		rngs := make([]*stats.RNG, numLCs)
		cur := make([]ip.Addr, numLCs)
		for lc := range rngs {
			rngs[lc] = root.Fork(uint64(lc))
			cur[lc] = pool.Draw(rngs[lc])
		}
		for p := 0; p < w.calls; p++ {
			lc := p % numLCs
			for j := 0; j < batchSize; j++ {
				if rngs[lc].Float64() >= repeat {
					cur[lc] = pool.Draw(rngs[lc])
				}
				in.addrs[p*batchSize+j] = cur[lc]
			}
		}
	}

	n := w.numBatches(seconds)
	var events []rtable.Update
	for horizon := int64(4e6); len(events) < n*updateBatch; horizon *= 2 {
		events = rtable.GenerateUpdates(in.tbl, rtable.UpdateStreamConfig{
			RatePerSecond: 1000,
			CycleNS:       5,
			Duration:      horizon * int64(n),
			WithdrawProb:  0.35,
			NewPrefixProb: 0.2,
			Seed:          seed*0x2545f4914f6cdd1d + 0x0d,
		})
		if horizon > 1e12 {
			return nil, fmt.Errorf("update generator gave %d of %d events", len(events), n*updateBatch)
		}
	}
	rng := stats.NewRNG(seed + 0x9b0b)
	for k := 0; k < n; k++ {
		b := events[k*updateBatch : (k+1)*updateBatch]
		in.batches = append(in.batches, b)
		for _, u := range b {
			p := u.Route.Prefix.Canon()
			span := uint64(p.LastAddr()-p.FirstAddr()) + 1
			in.probes = append(in.probes, p.FirstAddr()+ip.Addr(rng.Uint64()%span))
		}
	}
	all := make([]ip.Addr, 0, len(in.addrs)+len(in.probes))
	all = append(append(all, in.addrs...), in.probes...)
	in.checker = NewChecker(in.tbl, in.batches, all)
	return in, nil
}
