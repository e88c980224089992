// Command perfbench is the repository benchmark: it drives the concurrent
// SPAL router (internal/router) and the cycle simulator (internal/sim)
// through their public APIs on one workload, checks every output against
// its own oracle, and prints one JSON result line.
//
//	perfbench --workload hot_zipf --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// a separate, traced run on the same inputs gives the per-layer metrics.
// See README.md for the workloads, the metrics and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metric is one named figure of the result line.
type metric struct {
	name  string
	value float64
	unit  string
}

// report collects a run's metrics and operation counts.
type report struct {
	metrics []metric
	wrong   []string // first few verdict errors
	nWrong  int

	lookups, lookupsFailed int64
	batches, batchesFailed int64
	packets, packetsFailed int64
}

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// fail records a wrong output; the run then reports correct=false.
func (r *report) fail(err error) {
	r.nWrong++
	if len(r.wrong) < 5 {
		r.wrong = append(r.wrong, err.Error())
	}
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 10, "length of the measured lookup phase")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	printRecord(w, *seed, *seconds, *traceMode)

	rep := &report{}
	var err error
	if *traceMode == 1 {
		err = runTraced(w, *seed, *seconds, rep)
	} else {
		err = runEndToEnd(w, *seed, *seconds, rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("ops: lookups attempted=%d failed=%d; update batches attempted=%d failed=%d; sim packets attempted=%d failed=%d\n",
		rep.lookups, rep.lookupsFailed, rep.batches, rep.batchesFailed, rep.packets, rep.packetsFailed)
	for _, e := range rep.wrong {
		fmt.Println("wrong:", e)
	}
	if rep.nWrong > 0 {
		fmt.Printf("wrong: %d outputs disagree with the oracle\n", rep.nWrong)
	}
	for _, m := range rep.metrics {
		fmt.Printf("metric %-34s %14.6g %s\n", m.name, m.value, m.unit)
	}
	out := map[string]any{
		"correct":   rep.nWrong == 0,
		"attempted": rep.lookups + rep.batches + rep.packets,
		"failed":    rep.lookupsFailed + rep.batchesFailed + rep.packetsFailed,
		"metrics":   metricsJSON(rep.metrics),
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func metricsJSON(ms []metric) map[string]any {
	out := make(map[string]any, len(ms))
	for _, m := range ms {
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return out
}

// printRecord prints what a reader needs to compare two runs: host
// parallelism, toolchain, source revision, seed and settings.
func printRecord(w *workload, seed uint64, seconds float64, traceMode int) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+modified"
				}
			}
		}
	}
	fmt.Printf("run: workload=%s seed=%d seconds=%g trace=%d num_cpu=%d gomaxprocs=%d go=%s commit=%s\n",
		w.name, seed, seconds, traceMode, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
