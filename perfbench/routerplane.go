package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"spal/internal/ip"
	"spal/internal/router"
	"spal/internal/rtable"
)

// phase is what lookupPhase measured.
type phase struct {
	lp    *lookupPlane
	up    *updatePlane
	setup time.Duration // median router.New time
	heap  int64         // live heap the first warm router holds
	// counters sums, over the instances' measured rounds, the growth of
	// the router metrics named in countedMetrics.
	counters map[string]float64
}

// countedMetrics are the router counters the traced run reports.
var countedMetrics = []string{router.MetricCoalesced, router.MetricBatchFabricRequests}

// lookupPhase measures lookups for seconds, split evenly over instances
// routers built one after another from the same table. Each is built
// (timed), warmed, measured over whole rounds (with the update stream
// beside the lookups on route_churn), given the workload's quiet update
// batches (elsewhere), checked by a final exact pass and stopped; then
// between, if set, runs. onRound, if set, runs after each measured round.
//
// Throughput differs from one router to the next by up to ±15% on the
// reference host, and the host's speed drifts over seconds, so a run
// interleaves several routers and the other measurements.
func lookupPhase(w *workload, in *inputs, seconds float64, rep *report, instances int,
	onRound func(*router.Router), between func(), extra ...router.Option) (*phase, error) {
	ph := &phase{lp: newLookupPlane(w, in, rep), up: &updatePlane{}, counters: map[string]float64{}}
	ph.lp.lat = make([]time.Duration, 0, 1<<16)
	var setups []time.Duration
	for i := 0; i < instances; i++ {
		in.checker.Reset() // each router starts from the initial table
		heap0 := liveHeap()
		t0 := time.Now()
		r, err := router.New(in.tbl, w.routerOptions(extra...)...)
		if err != nil {
			return nil, fmt.Errorf("router.New: %w", err)
		}
		setups = append(setups, time.Since(t0))
		ph.instance(r, seconds/float64(instances), i == 0, heap0, onRound)
		r.Stop()
		if between != nil {
			between()
		}
	}
	ph.setup = median(setups)
	return ph, nil
}

// instance drives one router through warm-up, measured rounds, updates
// and the final pass.
func (ph *phase) instance(r *router.Router, seconds float64, first bool, heap0 uint64, onRound func(*router.Router)) {
	lp, up := ph.lp, ph.up
	in := lp.in
	lp.r, lp.clock = r, nil // the warm-up sees the initial table
	lp.afterRound = nil
	if onRound != nil {
		lp.afterRound = func() { onRound(r) }
	}
	lp.warmUp()
	if first {
		ph.heap = int64(liveHeap()) - int64(heap0)
	} else {
		runtime.GC()
	}
	before := r.Metrics()
	applied := up.applied
	up.lat = append(up.lat, nil)
	if lp.w.churn {
		lp.clock = &versionClock{}
		stop := up.startOpen(r, in.batches, lp.clock, lp.rep)
		lp.measure(seconds)
		stop()
	} else {
		lp.measure(seconds)
	}
	after := r.Metrics()
	for _, name := range countedMetrics {
		ph.counters[name] += after.Sum(name) - before.Sum(name)
	}
	if !lp.w.churn {
		up.applyQuiet(r, in.batches, lp.rep)
	}
	up.most = max(up.most, up.applied-applied)
	lp.finalPass(up.applied - applied)
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// versionClock brackets each lookup call with the table versions that
// can have been live during it: done counts update batches whose
// ApplyUpdates had returned, started those it had been called for.
type versionClock struct {
	started, done atomic.Int64
}

// lookupPlane is the closed-loop lookup driver: one client issuing
// 64-address LookupBatchInto calls round-robin over the arrival LCs,
// waiting for each call's verdicts before the next.
type lookupPlane struct {
	w     *workload
	in    *inputs
	r     *router.Router
	clock *versionClock // nil: the table does not change during lookups
	rep   *report

	next   int // next call of the input cycle
	out    []router.Verdict
	callAt []int // input call index of each call in the round
	lo, hi []int // version window of each call in the round
	failed []bool

	lat    []time.Duration // per-call wall time in measured rounds
	p99s   []time.Duration // p99 call wall time of each measured round
	addrs  int64           // addresses submitted in measured rounds
	served [router.ServedByHedge + 1]int64

	// rates holds the addresses per second of every rateWindow
	// consecutive calls of measured rounds, over the calls' own wall
	// time. A window is under a millisecond on hot_zipf and about 4 ms
	// on cold_uniform, so a host stall of a scheduler time slice falls
	// in one or two windows, which the median drops, instead of
	// slowing a whole round.
	rates []float64

	// The process's CPU time, heap allocations and GC cycles over the
	// call loops of measured rounds, leaving out the verdict checks.
	cpu        time.Duration
	mallocs    uint64
	gcs        uint64
	afterRound func() // runs after each measured round, outside timing
}

func newLookupPlane(w *workload, in *inputs, rep *report) *lookupPlane {
	return &lookupPlane{
		w:      w,
		in:     in,
		rep:    rep,
		out:    make([]router.Verdict, roundCalls*batchSize),
		callAt: make([]int, roundCalls),
		lo:     make([]int, roundCalls),
		hi:     make([]int, roundCalls),
		failed: make([]bool, roundCalls),
	}
}

// round issues one round of calls, then checks every verdict. Only a
// measured round records latency, throughput and serving counts.
func (lp *lookupPlane) round(measured bool) {
	ctx := context.Background()
	clear(lp.out)
	var lo, hi int
	var c0 processCounters
	if measured {
		c0 = readProcess()
	}
	for k := 0; k < roundCalls; k++ {
		p := lp.next % lp.w.calls
		lp.next++
		if lp.clock != nil {
			lo = int(lp.clock.done.Load())
		}
		tc := time.Now()
		err := lp.r.LookupBatchInto(ctx, p%numLCs, lp.in.addrs[p*batchSize:(p+1)*batchSize], lp.out[k*batchSize:(k+1)*batchSize])
		dt := time.Since(tc)
		if lp.clock != nil {
			hi = int(lp.clock.started.Load())
		}
		if measured {
			lp.lat = append(lp.lat, dt)
		}
		lp.callAt[k], lp.lo[k], lp.hi[k], lp.failed[k] = p, lo, hi, err != nil
	}
	if measured {
		c1 := readProcess()
		lp.cpu += c1.cpu - c0.cpu
		lp.mallocs += c1.mallocs - c0.mallocs
		lp.gcs += uint64(c1.gcs - c0.gcs)
	}
	n := roundCalls * batchSize
	lp.rep.lookups += int64(n)
	if measured {
		lat := lp.lat[len(lp.lat)-roundCalls:]
		for i := 0; i < roundCalls; i += rateWindow {
			var busy time.Duration
			for _, d := range lat[i : i+rateWindow] {
				busy += d
			}
			lp.rates = append(lp.rates, float64(rateWindow*batchSize)/busy.Seconds())
		}
		lp.p99s = append(lp.p99s, percentile(lat, 0.99))
		lp.addrs += int64(n)
	}
	for k := 0; k < roundCalls; k++ {
		if lp.failed[k] {
			lp.rep.lookupsFailed += batchSize
			continue
		}
		for j := 0; j < batchSize; j++ {
			v := lp.out[k*batchSize+j]
			if err := lp.in.checker.Check(lp.callAt[k]*batchSize+j, v, lp.lo[k], lp.hi[k]); err != nil {
				lp.rep.fail(err)
			}
			if measured && int(v.ServedBy) < len(lp.served) {
				lp.served[v.ServedBy]++
			}
		}
	}
	if measured && lp.afterRound != nil {
		lp.afterRound()
	}
}

// processCounters is the process state a measured round reads around its
// call loop.
type processCounters struct {
	cpu     time.Duration // user+system CPU time
	mallocs uint64
	gcs     uint32
}

func readProcess() processCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return processCounters{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		gcs:     ms.NumGC,
	}
}

// warmUp runs the workload's unmeasured rounds.
func (lp *lookupPlane) warmUp() {
	for n := 0; n < lp.w.warm; n++ {
		lp.round(false)
	}
}

// measure runs whole rounds until seconds have passed and at least
// minRounds were made.
func (lp *lookupPlane) measure(seconds float64) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for n := 0; n < minRounds || time.Now().Before(deadline); n++ {
		lp.round(true)
	}
}

// finalPass looks up every update probe and one round of inputs after
// the last ApplyUpdates has returned, and requires the final table
// exactly.
func (lp *lookupPlane) finalPass(version int) {
	ctx := context.Background()
	base := len(lp.in.addrs)
	idx := make([]int, 0, len(lp.in.probes)+roundCalls*batchSize)
	for i := range lp.in.probes {
		idx = append(idx, base+i)
	}
	for i := 0; i < roundCalls*batchSize; i++ {
		idx = append(idx, i)
	}
	batch := make([]ip.Addr, 0, batchSize)
	out := make([]router.Verdict, batchSize)
	for start, call := 0, 0; start < len(idx); start, call = start+batchSize, call+1 {
		end := min(start+batchSize, len(idx))
		batch = batch[:0]
		for _, i := range idx[start:end] {
			batch = append(batch, lp.in.checker.inputs[i])
		}
		clear(out)
		lp.rep.lookups += int64(end - start)
		if err := lp.r.LookupBatchInto(ctx, call%numLCs, batch, out[:end-start]); err != nil {
			lp.rep.lookupsFailed += int64(end - start)
			continue
		}
		for k, i := range idx[start:end] {
			if err := lp.in.checker.Check(i, out[k], version, version); err != nil {
				lp.rep.fail(fmt.Errorf("final pass: %w", err))
			}
		}
	}
}

// updatePlane applies update batches and records, per batch, the time
// from when it was due until ApplyUpdates returned. Every router starts
// from the initial table and applies the stream from its start, so batch
// k is the same work on each: lat[i][k] is its latency on router i.
type updatePlane struct {
	lat     [][]time.Duration
	lag     []time.Duration // how late each batch was started
	applied int             // batches whose ApplyUpdates returned, over all routers
	most    int             // the most batches one router applied
}

// latency is the median over batches of each batch's lowest latency on
// any router. The update work is CPU-bound, so on a host whose vCPUs lose
// time to hypervisor steal in bursts the fastest repeat is the steady
// reading of it.
func (up *updatePlane) latency() time.Duration {
	var best []time.Duration
	for _, lats := range up.lat {
		for k, d := range lats {
			if k == len(best) {
				best = append(best, d)
			}
			best[k] = min(best[k], d)
		}
	}
	return median(best)
}

// add records batch latency d on the current (last) router.
func (up *updatePlane) add(d time.Duration) {
	up.lat[len(up.lat)-1] = append(up.lat[len(up.lat)-1], d)
}

// applyQuiet applies batches one after another on a router no lookup is
// using, with a forced collection before each: a batch is due when that
// collection ends. Like startOpen it stops at the first failed batch.
func (up *updatePlane) applyQuiet(r *router.Router, batches [][]rtable.Update, rep *report) {
	for _, b := range batches {
		runtime.GC()
		t0 := time.Now()
		err := r.ApplyUpdates(b)
		up.add(time.Since(t0))
		up.lag = append(up.lag, 0)
		rep.batches++
		if err != nil {
			rep.batchesFailed++
			return
		}
		up.applied++
	}
}

// startOpen applies batches at churnRate per second from now until stop
// is closed, publishing version numbers on clock. The returned stop
// closes it, waits until the goroutine has returned and tallies into rep.
func (up *updatePlane) startOpen(r *router.Router, batches [][]rtable.Update, clock *versionClock, rep *report) (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	var attempted, failed int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		interval := time.Second / churnRate
		start := time.Now()
		for k, b := range batches {
			due := start.Add(time.Duration(k) * interval)
			timer := time.NewTimer(time.Until(due))
			select {
			case <-quit:
				timer.Stop()
				return
			case <-timer.C:
			}
			up.lag = append(up.lag, time.Since(due))
			clock.started.Add(1)
			err := r.ApplyUpdates(b)
			up.add(time.Since(due))
			attempted++
			if err != nil {
				// Later batches would no longer be the versions the
				// checker numbers, so the plane stops here.
				failed++
				return
			}
			clock.done.Add(1)
			up.applied++
		}
	}()
	return func() {
		close(quit)
		wg.Wait()
		rep.batches += attempted
		rep.batchesFailed += failed
	}
}

func median[T int64 | float64 | time.Duration](xs []T) T {
	return percentile(xs, 0.5)
}

// percentile returns the nearest-rank p-quantile of xs (0 for none).
func percentile[T int64 | float64 | time.Duration](xs []T, p float64) T {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(float64(len(s))*p)) - 1
	return s[max(0, min(i, len(s)-1))]
}
