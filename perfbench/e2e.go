package main

import "time"

// routerInstances is how many routers, and simulations, an end-to-end
// run makes, one after another.
const routerInstances = 5

// runEndToEnd is the untraced run: the router's lookup plane, its update
// plane and the cycle model, over the workload's inputs, then one
// untimed verified simulation.
func runEndToEnd(w *workload, seed uint64, seconds float64, rep *report) error {
	in, err := makeInputs(w, seed, seconds)
	if err != nil {
		return err
	}
	sp, err := newSimPlane(w, in.tbl, seed, false, rep)
	if err != nil {
		return err
	}
	ph, err := lookupPhase(w, in, seconds, rep, routerInstances, nil, sp.run)
	if err != nil {
		return err
	}
	sp.verify()
	first, err := sp.first()
	if err != nil {
		return err
	}
	var simNew []time.Duration
	var simRates []float64
	for _, sr := range sp.runs {
		simNew = append(simNew, sr.newT)
		simRates = append(simRates, float64(sr.res.PacketsCompleted)/sr.cpu.Seconds())
	}

	rep.add("lookup_mlps", median(ph.lp.rates)/1e6, "Mlps")
	rep.add("lookup_cpu_ns", float64(ph.lp.cpu.Nanoseconds())/float64(ph.lp.addrs), "ns")
	rep.add("batch_p50_us", float64(percentile(ph.lp.lat, 0.50))/1e3, "us")
	rep.add("batch_p90_us", float64(percentile(ph.lp.lat, 0.90))/1e3, "us")
	rep.add("update_p50_ms", float64(ph.up.latency())/1e6, "ms")
	rep.add("setup_s", (ph.setup + median(simNew)).Seconds(), "s")
	rep.add("heap_live_mb", float64(ph.heap)/(1<<20), "MiB")
	rep.add("mean_lookup_cycles", first.res.MeanLookupCycles, "cycles")
	rep.add("sim_mpps", median(simRates)/1e6, "Mpps")
	return nil
}
