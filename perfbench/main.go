// Command perfbench is the repository's benchmark. It runs one named
// workload against the synthesis library or the rmsynd service, checks
// every output for correctness, and prints its metrics, by name with
// their units, ending with one JSON line.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload table2 --seed 1 --seconds 36 --trace 0
//
// --trace 0 prints the end-to-end metrics, measured untraced. --trace 1
// records a span around every call the benchmark makes into a layer,
// writes the spans under .bench_build/traces, and prints the per-layer
// metrics instead. README.md lists the workloads and metrics.
//
// Exit codes: 0 success, 1 a failed operation or check (the result line
// is still printed), 2 a usage or set-up error.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// setupRuns is how many times a library run sets its workload up;
// setup_s is the median. A set-up takes milliseconds, so many of them
// cost little and steady the median.
const setupRuns = 21

// buildDir holds everything the benchmark writes, relative to the
// repository root it runs from.
const buildDir = ".bench_build"

type runConfig struct {
	seed    int64
	seconds time.Duration
	tracer  *Tracer // nil for an untraced run
}

// outcome is what a workload measured.
type outcome struct {
	values    map[string]float64
	attempted int
	failures  []string
	counts    map[string]int64   // the first pass's; every later pass must match
	layerSum  map[string]float64 // per-layer sums over traced passes
	notes     []string
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, layerSum: map[string]float64{}}
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// addCounts checks one pass's counts against the first pass's.
func (o *outcome) addCounts(c map[string]int64) error {
	if o.counts == nil {
		o.counts = c
		return nil
	}
	return diffCounts("pass", o.counts, c)
}

func diffCounts(what string, want, got map[string]int64) error {
	var diffs []string
	for _, k := range countKeys {
		if want[k] != got[k] {
			diffs = append(diffs, fmt.Sprintf("%s %d != %d", k, got[k], want[k]))
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("determinism: %s counts differ: %s", what, strings.Join(diffs, ", "))
	}
	return nil
}

func (o *outcome) addLayer(l map[string]float64) {
	for k, v := range l {
		o.layerSum[k] += v
	}
}

// finishLayers turns the per-layer sums of n traced passes into
// per-pass values.
func (o *outcome) finishLayers(n int) {
	for k, v := range o.layerSum {
		o.values[k] = v / float64(n)
	}
	for _, dd := range []string{"bdd", "ofdd"} {
		if look := o.layerSum[dd+".op_lookups"]; look > 0 {
			o.values[dd+".op_hit_rate"] = o.layerSum[dd+".op_hits"] / look
		}
	}
}

// setRequests sets the request latency and rate metrics.
func (o *outcome) setRequests(latMS []float64, perS float64) {
	p50, _ := Percentile(latMS, 50)
	p, tail, beyond := Tail(latMS)
	o.set("req_p50_ms", p50)
	o.set("req_tail_ms", tail)
	o.set("req_per_s", perS)
	o.note("requests: n=%d p50=%.3fms tail=p%.1f %.3fms (%d samples beyond)", len(latMS), p50, p, tail, beyond)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"table2":  func(cfg runConfig) (*outcome, error) { return runLibrary(cfg, table2Flow()) },
	"arith":   func(cfg runConfig) (*outcome, error) { return runLibrary(cfg, arithFlow()) },
	"service": runService,
}

func main() {
	var (
		workload = flag.String("workload", "", "table2 | arith | service")
		seed     = flag.Int64("seed", 1, "workload seed: circuit order, request draw, hit/miss choice, signal renaming")
		seconds  = flag.Float64("seconds", 10, "how long the run measures")
		trace    = flag.Int("trace", 0, "1 = traced run that reports per-layer metrics")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload table2|arith|service, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second))}
	defs := endToEnd
	if *trace == 1 {
		cfg.tracer = newTracer()
		defs = perLayer
	}

	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if len(out.failures) == 0 && out.counts != nil {
		if err := checkCountsAcrossRuns(*workload, out.counts); err != nil {
			out.failures = append(out.failures, err.Error())
		}
	}
	if cfg.tracer != nil {
		for layer, d := range SelfTimes(cfg.tracer.Spans()) {
			out.set("self."+layer+"_s", d.Seconds())
		}
		path := filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err := cfg.tracer.WriteFile(path); err != nil {
			out.failures = append(out.failures, "writing trace: "+err.Error())
		} else {
			out.note("trace: %d spans in %s", len(cfg.tracer.Spans()), path)
		}
	}
	if runs := out.values["arbiter.sop_arm_runs"]; runs > 0 {
		out.set("arbiter.sop_arm_kept_ratio", out.values["arbiter.sop_arm_kept"]/runs)
	}

	res := resultLine{Attempted: out.attempted, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := out.values[d.name]
		switch {
		case !ok && *trace == 1:
			v = 0 // a layer this workload does not exercise
		case !ok || math.IsNaN(v) || math.IsInf(v, 0):
			out.failures = append(out.failures, fmt.Sprintf("metric %s not measured", d.name))
			v = 0
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	res.Failed = len(out.failures)
	res.Correct = res.Failed == 0 && res.Attempted > 0

	fmt.Printf("workload %s  seed %d  trace %d\n", *workload, *seed, *trace)
	for _, n := range out.notes {
		fmt.Println("  " + n)
	}
	for _, d := range defs {
		fmt.Printf("  %-32s %16.6f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	for _, f := range out.failures {
		fmt.Fprintln(os.Stderr, "FAIL:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// checkCountsAcrossRuns compares this run's deterministic counts with
// the ones the first run of the same binary recorded for the workload,
// recording them when there are none yet.
func checkCountsAcrossRuns(workload string, counts map[string]int64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(exe)
	if err != nil {
		return err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return err
	}
	path := filepath.Join(buildDir, "counts", workload+"-"+hex.EncodeToString(h.Sum(nil))[:16]+".json")
	b, err := os.ReadFile(path)
	if err == nil {
		var want map[string]int64
		if err := json.Unmarshal(b, &want); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		return diffCounts("run", want, counts)
	}
	if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	keep := map[string]int64{}
	for _, k := range countKeys {
		keep[k] = counts[k]
	}
	if b, err = json.Marshal(keep); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
