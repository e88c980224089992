package main

import (
	"fmt"
	"time"

	"spal/internal/cache"
	"spal/internal/ip"
	"spal/internal/lpm"
	"spal/internal/partition"
	"spal/internal/router"
	"spal/internal/rtable"
	"spal/internal/tracing"
)

const (
	traceRate    = 1.0 / 64 // head-sampling rate of the traced phase
	traceJournal = 8192     // completed traces the router keeps; read after every round
	layerRepeats = 3        // builds per layer build time
	tracePairs   = 3        // untraced and traced routers of the traced run
)

// runTraced is the traced run. Untraced routers give the router's own
// counters; traced routers on the same inputs, alternating with them,
// give the sampled spans and the tracing overhead; replays of the same address
// and update streams through each layer's public functions give their
// self times. End-to-end figures are never taken from it.
func runTraced(w *workload, seed uint64, seconds float64, rep *report) error {
	in, err := makeInputs(w, seed, seconds)
	if err != nil {
		return err
	}
	half := seconds / 2

	// Untraced and traced routers alternate, each measured for
	// half/tracePairs: router-to-router throughput differs by more than
	// the tracing cost, so the overhead is a difference of medians over
	// several routers of each kind. Traces are read after every round,
	// before the journal wraps.
	var tr traceCollector
	var tracedRates []float64
	var tracedErr error
	traced := func() {
		if tracedErr != nil {
			return
		}
		tph, err := lookupPhase(w, in, half/tracePairs, rep, 1, tr.collect, nil,
			router.WithTraceSampling(traceRate), router.WithTraceJournal(traceJournal))
		if err != nil {
			tracedErr = err
			return
		}
		tracedRates = append(tracedRates, tph.lp.rates...)
	}
	ph, err := lookupPhase(w, in, half, rep, tracePairs, nil, traced)
	if err != nil {
		return err
	}
	if tracedErr != nil {
		return tracedErr
	}
	lp, up := ph.lp, ph.up
	calls := float64(len(lp.lat))
	addrs := float64(lp.addrs)

	ly, err := replayLayers(w, in, up.most)
	if err != nil {
		return err
	}
	for _, e := range ly.wrong {
		rep.fail(e)
	}
	var sims [2]simRun // plain (then verified), and with stage accounting
	for i := range sims {
		sp, err := newSimPlane(w, in.tbl, seed, i == 1, rep)
		if err != nil {
			return err
		}
		sp.run()
		if i == 0 {
			sp.verify()
		}
		if sims[i], err = sp.first(); err != nil {
			return err
		}
	}
	plain, staged := sims[0], sims[1]

	untraced := median(lp.rates)
	nsPerAddr := 1e9 / untraced
	missShare := 1 - ly.hitRate
	rep.add("router.batch_p99_us", float64(median(lp.p99s))/1e3, "us")
	rep.add("router.hop_ns_per_addr", nsPerAddr-ly.probeNS-missShare*(ly.homeNS+ly.lpmNS), "ns")
	rep.add("router.served_cache", float64(lp.served[router.ServedByCache]), "count")
	rep.add("router.served_fe", float64(lp.served[router.ServedByFE]), "count")
	rep.add("router.served_fabric", float64(lp.served[router.ServedByRemote]), "count")
	rep.add("router.served_fallback", float64(lp.served[router.ServedByFallback]), "count")
	rep.add("router.coalesced", ph.counters[router.MetricCoalesced], "count")
	rep.add("router.fabric_msgs_per_batch", ph.counters[router.MetricBatchFabricRequests]/calls, "msgs/call")
	rep.add("router.stage.arrival_probe_ns", median(tr.probe), "ns")
	rep.add("router.stage.fabric_send_recv_ns", median(tr.fabric), "ns")
	rep.add("router.stage.fe_exec_ns", median(tr.fe), "ns")
	rep.add("router.stage.fill_verdict_ns", median(tr.verdict), "ns")
	rep.add("router.trace_spans", float64(tr.n), "count")
	rep.add("router.trace_overhead_mlps", (untraced-median(tracedRates))/1e6, "Mlps")
	rep.add("cache.probe_ns", ly.probeNS, "ns")
	rep.add("cache.hit_rate", ly.hitRate, "ratio")
	rep.add("cache.invalidate_us", ly.invalidateUS, "us")
	rep.add("cache.range_evictions", ly.evictions, "count")
	rep.add("lpm.lookup_ns", ly.lpmNS, "ns")
	rep.add("lpm.mean_accesses", ly.accesses, "count")
	rep.add("lpm.build_full_ms", ly.buildFullMS, "ms")
	rep.add("lpm.build_partition_ms", ly.buildPartMS, "ms")
	rep.add("partition.build_ms", ly.partitionMS, "ms")
	rep.add("partition.home_ns", ly.homeNS, "ns")
	rep.add("partition.apply_updates_ms", ly.partApplyMS, "ms")
	rep.add("partition.replication", ly.replication, "ratio")
	rep.add("partition.remote_share", ly.remoteShare, "ratio")
	rep.add("rtable.apply_all_ms", ly.applyAllMS, "ms")
	for i, name := range []string{"arrival_probe", "fabric_send_recv", "fe_queue", "fe_exec", "fe_exec_verdict"} {
		v := 0.0
		if st := staged.res.Stages; i < len(st) {
			v = st[i].MeanCycles
		}
		rep.add("sim.stage."+name+"_cycles", v, "cycles")
	}
	rep.add("sim.p99_lookup_cycles", float64(plain.res.LatencyPercentile(0.99)), "cycles")
	rep.add("sim.hit_rate", plain.res.HitRate, "ratio")
	rep.add("fabric.messages", float64(plain.res.FabricMessages), "count")
	rep.add("sim.run_s", plain.run.Seconds(), "s")
	rep.add("runtime.allocs_per_lookup", float64(lp.mallocs)/addrs, "count")
	rep.add("runtime.gc_cycles", float64(lp.gcs), "count")
	rep.add("update.generator_lag_ms", float64(percentile(up.lag, 1))/1e6, "ms")
	return nil
}

// traceCollector gathers per-stage durations from the router's sampled
// lookup spans.
type traceCollector struct {
	last                       uint64 // highest trace id read
	n                          int
	probe, fabric, fe, verdict []float64
}

// collect reads the journal and keeps the traces not seen before.
func (tc *traceCollector) collect(r *router.Router) {
	for _, t := range r.Traces() {
		if t.ID <= tc.last {
			continue
		}
		tc.last = max(tc.last, t.ID)
		tc.n++
		var at [tracing.NumEventKinds]int64
		var seen [tracing.NumEventKinds]bool
		for _, e := range t.EventSlice() {
			if !seen[e.Kind] {
				at[e.Kind], seen[e.Kind] = e.At, true
			}
			if e.Kind == tracing.EvFEExec {
				tc.fe = append(tc.fe, float64(e.A))
			}
		}
		span := func(dst *[]float64, from, to tracing.EventKind) {
			if seen[from] && seen[to] {
				*dst = append(*dst, float64(at[to]-at[from]))
			}
		}
		span(&tc.probe, tracing.EvArrival, tracing.EvProbe)
		span(&tc.fabric, tracing.EvFabricSend, tracing.EvFabricRecv)
		span(&tc.verdict, tracing.EvFill, tracing.EvVerdict)
	}
}

// layers holds the replayed per-layer figures.
type layers struct {
	partitionMS, buildFullMS, buildPartMS float64
	homeNS, remoteShare, replication      float64
	probeNS, hitRate                      float64
	lpmNS, accesses                       float64
	applyAllMS, partApplyMS               float64
	invalidateUS, evictions               float64
	wrong                                 []error
}

// replayLayers times each layer's public functions on the run's own
// address and update streams, on one goroutine.
func replayLayers(w *workload, in *inputs, applied int) (*layers, error) {
	b, err := w.builder()
	if err != nil {
		return nil, err
	}
	ly := &layers{}
	var part *partition.Partitioning
	var tPart, tFull, tEng []time.Duration
	engines := make([]lpm.Engine, numLCs)
	for k := 0; k < layerRepeats; k++ {
		t0 := time.Now()
		part = partition.Partition(in.tbl, numLCs)
		tPart = append(tPart, time.Since(t0))
		t0 = time.Now()
		b(in.tbl)
		tFull = append(tFull, time.Since(t0))
		t0 = time.Now()
		for lc := range engines {
			engines[lc] = b(part.Table(lc))
		}
		tEng = append(tEng, time.Since(t0))
	}
	ly.partitionMS = ms(median(tPart))
	ly.buildFullMS = ms(median(tFull))
	ly.buildPartMS = ms(median(tEng))
	ly.replication = part.Stats().Replication

	// Home selection over the whole input cycle.
	homes := make([]uint8, len(in.addrs))
	remote := 0
	t0 := time.Now()
	for i, a := range in.addrs {
		homes[i] = uint8(part.HomeLC(a))
	}
	ly.homeNS = float64(time.Since(t0).Nanoseconds()) / float64(len(in.addrs))
	for i := range in.addrs {
		if int(homes[i]) != (i/batchSize)%numLCs {
			remote++
		}
	}
	ly.remoteShare = float64(remote) / float64(len(in.addrs))

	// LR-cache replay: each arrival LC's stream through its own cache,
	// filling on every miss, after one warming round. The time covers
	// the probes and the fills.
	oracle := NewOracle(in.tbl.Routes())
	nhs := make([]rtable.NextHop, len(in.addrs))
	for i, a := range in.addrs {
		nhs[i], _ = oracle.Lookup(a)
	}
	caches := make([]*cache.Cache, numLCs)
	for lc := range caches {
		caches[lc] = cache.New(cache.DefaultConfig())
	}
	replay := func(from, to int, misses [][]ip.Addr) time.Duration {
		var el time.Duration
		for p := from; p < to; p++ {
			lc := p % numLCs
			c := caches[lc]
			t0 := time.Now()
			for i := p * batchSize; i < (p+1)*batchSize; i++ {
				a := in.addrs[i]
				if c.Probe(a).Kind != cache.Miss {
					continue
				}
				h := int(homes[i])
				origin := cache.REM
				if h == lc {
					origin = cache.LOC
				}
				c.Fill(a, nhs[i], origin)
				if misses != nil {
					misses[h] = append(misses[h], a)
				}
			}
			el += time.Since(t0)
		}
		return el
	}
	replay(0, roundCalls, nil)
	var s0 cache.Stats
	for _, c := range caches {
		s0 = addStats(s0, c.Stats())
	}
	misses := make([][]ip.Addr, numLCs)
	el := replay(0, w.calls, misses)
	var s1 cache.Stats
	for _, c := range caches {
		s1 = addStats(s1, c.Stats())
	}
	probes := s1.Probes - s0.Probes
	ly.probeNS = float64(el.Nanoseconds()) / float64(probes)
	ly.hitRate = float64(s1.Hits+s1.HitVictims-s0.Hits-s0.HitVictims) / float64(probes)

	// FE walk: LookupAll on the home engine over the miss stream.
	out := make([]lpm.Result, batchSize)
	var nMiss int
	var lpmT time.Duration
	var acc float64
	for h, addrs := range misses {
		t0 := time.Now()
		for s := 0; s < len(addrs); s += batchSize {
			lpm.LookupAll(engines[h], addrs[s:min(s+batchSize, len(addrs))], out)
		}
		lpmT += time.Since(t0)
		nMiss += len(addrs)
		acc += lpm.MeanAccesses(engines[h], addrs) * float64(len(addrs))
		for s := 0; s < len(addrs); s += batchSize {
			chunk := addrs[s:min(s+batchSize, len(addrs))]
			lpm.LookupAll(engines[h], chunk, out)
			for k, a := range chunk {
				nh, ok := oracle.Lookup(a)
				if (out[k].OK != ok || (ok && out[k].NextHop != nh)) && len(ly.wrong) < 100 {
					ly.wrong = append(ly.wrong, fmt.Errorf("lpm replay: %s on LC %d engine gives %d, want %d",
						ip.FormatAddr(a), h, out[k].NextHop, nh))
				}
			}
		}
	}
	if nMiss > 0 {
		ly.lpmNS = float64(lpmT.Nanoseconds()) / float64(nMiss)
		ly.accesses = acc / float64(nMiss)
	}

	// Update plane: the batches the router applied, through the table,
	// the partitioning and the replayed caches.
	cur := in.tbl
	var tApply, tPApply, tInv []time.Duration
	var evicted int
	for _, batch := range in.batches[:applied] {
		t0 := time.Now()
		cur = cur.ApplyAll(batch)
		tApply = append(tApply, time.Since(t0))
		t0 = time.Now()
		part, _ = part.ApplyUpdates(batch)
		tPApply = append(tPApply, time.Since(t0))
		ranges := rtable.UpdateRanges(batch)
		t0 = time.Now()
		for _, c := range caches {
			for _, r := range ranges {
				evicted += c.InvalidateRange(r.Lo, r.Hi)
			}
		}
		tInv = append(tInv, time.Since(t0))
	}
	ly.applyAllMS = ms(median(tApply))
	ly.partApplyMS = ms(median(tPApply))
	ly.invalidateUS = float64(median(tInv).Nanoseconds()) / 1e3
	if applied > 0 {
		ly.evictions = float64(evicted) / float64(applied)
	}
	return ly, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func addStats(a, b cache.Stats) cache.Stats {
	a.Probes += b.Probes
	a.Hits += b.Hits
	a.HitVictims += b.HitVictims
	return a
}
