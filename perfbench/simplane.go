package main

import (
	"fmt"
	"runtime"
	"time"

	"spal/internal/rtable"
	"spal/internal/sim"
	"spal/internal/trace"
)

// simUniformLoad scales the offered load of the cache-defeating stream so
// the busiest FE stays below saturation: at the paper's full 40 Gbps
// nearly every packet needs a 40-cycle FE execution, the queues grow
// without bound and the mean only measures run length.
const simUniformLoad = 0.1

// simConfig is the paper's configuration (ψ=16, 40-cycle FE, 4K-block
// LR-cache at γ=50%, 40 Gbps, multistage fabric) over the workload's
// destinations and engine, with VerifyNextHops off: the check builds a
// full-table reference in sim.New and looks up every packet in Run, so
// it would be timed as the simulator's cost. simPlane.verify runs the
// checked simulation apart. route_churn
// simulates without churn, as hot_zipf does: the simulator spends about
// 230 ms of whole-table work per update event on RT2, so the few
// Poisson-timed events a short run holds would set its speed.
func simConfig(w *workload, tbl *rtable.Table, seed uint64) (sim.Config, error) {
	cfg := sim.DefaultConfig(tbl)
	cfg.PacketsPerLC = w.simPackets
	cfg.Seed = seed
	if w.uniform {
		// A fixed trace seed, as the paper presets have.
		cfg.TraceConfig = trace.Config{PoolSize: 1 << 20, ZipfS: 0, MeanTrain: 1, Seed: 0xc01d}
		cfg.OfferedLoad = simUniformLoad
	}
	b, err := w.builder()
	if err != nil {
		return cfg, err
	}
	cfg.Engine = b
	return cfg, nil
}

// simRun is one simulation: its result, the wall time of sim.New and of
// Run alone, and the process CPU time of Run.
type simRun struct {
	res            *sim.Result
	newT, run, cpu time.Duration
}

func runSim(cfg sim.Config) (sr simRun, err error) {
	runtime.GC()
	t0 := time.Now()
	s, err := sim.New(cfg)
	if err != nil {
		return sr, fmt.Errorf("sim.New: %w", err)
	}
	sr.newT = time.Since(t0)
	// VerifyNextHops panics on a wrong verdict; report it as one.
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("sim.Run: %v", p)
		}
	}()
	runtime.GC()
	c0 := readProcess().cpu
	t0 = time.Now()
	sr.res, err = s.Run()
	sr.run = time.Since(t0)
	sr.cpu = readProcess().cpu - c0
	if err != nil {
		return sr, fmt.Errorf("sim.Run: %w", err)
	}
	return sr, nil
}

// simPlane runs the workload's simulation repeatedly and checks it. A
// simulation that errors or leaves packets incomplete counts its packets
// failed; a result that differs between repeats of one seed, or from the
// verified simulation, is a wrong output.
type simPlane struct {
	cfg  sim.Config
	rep  *report
	runs []simRun
}

func newSimPlane(w *workload, tbl *rtable.Table, seed uint64, stages bool, rep *report) (*simPlane, error) {
	cfg, err := simConfig(w, tbl, seed)
	if err != nil {
		return nil, err
	}
	cfg.StageAccounting = stages
	return &simPlane{cfg: cfg, rep: rep}, nil
}

// run makes one timed simulation.
func (sp *simPlane) run() {
	if res := sp.simulate(sp.cfg); res != nil {
		sp.runs = append(sp.runs, *res)
	}
}

// verify makes one simulation with VerifyNextHops on, which checks every
// completed packet against the simulator's full-table reference (and
// panics on a wrong one), and requires the timed simulations to have
// given the same result. Its times are not reported.
func (sp *simPlane) verify() {
	cfg := sp.cfg
	cfg.VerifyNextHops = true
	sp.simulate(cfg)
}

// simulate runs cfg, tallies its packets and compares its result with
// the first timed simulation. It returns nil if the simulation failed.
func (sp *simPlane) simulate(cfg sim.Config) *simRun {
	total := int64(cfg.NumLCs * cfg.PacketsPerLC)
	sp.rep.packets += total
	sr, err := runSim(cfg)
	if err != nil {
		sp.rep.packetsFailed += total
		sp.rep.fail(err)
		return nil
	}
	sp.rep.packetsFailed += total - sr.res.PacketsCompleted
	if len(sp.runs) > 0 {
		a, b := sp.runs[0].res, sr.res
		if a.MeanLookupCycles != b.MeanLookupCycles || a.LatencyPercentile(0.99) != b.LatencyPercentile(0.99) ||
			a.PacketsCompleted != b.PacketsCompleted {
			sp.rep.fail(fmt.Errorf("sim results differ: mean %v vs %v cycles, %d vs %d packets completed",
				a.MeanLookupCycles, b.MeanLookupCycles, a.PacketsCompleted, b.PacketsCompleted))
		}
	}
	return &sr
}

// first returns the first completed simulation.
func (sp *simPlane) first() (simRun, error) {
	if len(sp.runs) == 0 {
		return simRun{}, fmt.Errorf("no simulation completed")
	}
	return sp.runs[0], nil
}
