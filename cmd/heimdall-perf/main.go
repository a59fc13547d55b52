// Command heimdall-perf is the repository's benchmark. It drives scripted
// decide traffic at a child heimdall-serve built from the tree it runs in,
// runs one offline train→replay workload in-process, checks every verdict
// against an in-process reference, and prints every metric by name and unit
// as JSON. See README.md in this directory.
//
// Usage (from the module root):
//
//	go run ./cmd/heimdall-perf -seed 1                     # every workload, both passes
//	go run ./cmd/heimdall-perf -workload decide-sync -trace 0
//	go run ./cmd/heimdall-perf -compare A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// fingerprint says what produced a set of numbers.
type fingerprint struct {
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Commit    string  `json:"commit"`
	GoVersion string  `json:"go_version"`
	NProc     int     `json:"nproc"`
	CPU       string  `json:"cpu"`
	Kernel    string  `json:"kernel"`
	// GenCPUs and ServeCPUs are the CPUs the generator and the child server
	// are confined to; empty when the CPUs are not split.
	GenCPUs   []int `json:"gen_cpus,omitempty"`
	ServeCPUs []int `json:"serve_cpus,omitempty"`
	// ServeArgv is the command line of the (last) child heimdall-serve.
	ServeArgv string `json:"serve_argv,omitempty"`
}

func readFingerprint(seed int64, seconds float64) fingerprint {
	fp := fingerprint{
		Seed: seed, Seconds: seconds, Commit: "unknown", GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), CPU: "unknown", Kernel: "unknown",
	}
	// A driver's checkout is not a git repository; the commit then stays unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				fp.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(data))
	}
	return fp
}

// document is the full output: the fingerprint and one result per
// (workload, pass) run.
type document struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Runs        []*result   `json:"runs"`
}

// driverLine is the last stdout line of a single-workload run.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "heimdall-perf:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("heimdall-perf", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload (decide-sync, decide-pipelined, decide-joint, train-replay) and end with the one-line result; empty runs all four, both passes")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 15, "length of the measured window")
	trace := fs.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics with tracing off, 1 runs the traced pass and reports the per-layer metrics")
	out := fs.String("out", "", "also write the full JSON document to this file")
	buildDir := fs.String("build-dir", ".bench_build", "where the child server binary, its model file and its socket go")
	compare := fs.Bool("compare", false, "compare two documents: heimdall-perf -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), os.Stdout)
	}
	if *seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}

	names := []string{*workload}
	passes := []bool{*trace == 1}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
		passes = []bool{false, true}
	}
	var bin string
	for _, name := range names {
		if strings.HasPrefix(name, "decide-") && bin == "" {
			var err error
			if bin, err = buildServer(*buildDir); err != nil {
				return err
			}
		}
	}
	cpus, err := splitCPUs()
	if err == nil {
		err = cpus.pinSelf()
	}
	if err != nil {
		// A sandbox may forbid sched_setaffinity; the numbers are then
		// noisier, not wrong.
		fmt.Fprintln(os.Stderr, "heimdall-perf: CPUs not split between generator and server:", err)
		cpus = cpuSplit{}
	}
	doc := document{Fingerprint: readFingerprint(*seed, *seconds)}
	doc.Fingerprint.GenCPUs, doc.Fingerprint.ServeCPUs = cpus.gen, cpus.srv
	for _, name := range names {
		for _, traced := range passes {
			o := options{seed: *seed, seconds: *seconds, traced: traced, buildDir: *buildDir, outDir: "cmd/heimdall-perf/out", cpus: cpus}
			var res *result
			switch name {
			case "decide-sync", "decide-pipelined", "decide-joint":
				res, err = runDecide(name, o, bin)
			case "train-replay":
				res, err = runTrainReplay(o)
			default:
				return fmt.Errorf("unknown workload %q", name)
			}
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			doc.Runs = append(doc.Runs, res)
			if res.ServeArgv != "" {
				doc.Fingerprint.ServeArgv = res.ServeArgv
			}
		}
	}

	if *out != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	enc := json.NewEncoder(os.Stdout)
	if *workload == "" {
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return err
		}
	} else {
		// The fingerprint goes first: the last line must be the result alone.
		if err := enc.Encode(doc.Fingerprint); err != nil {
			return err
		}
		res := doc.Runs[0]
		defs := endToEnd
		if res.Traced {
			defs = perLayer
		}
		line := driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Values.fill(defs)}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	for _, res := range doc.Runs {
		if !res.Correct {
			return fmt.Errorf("%s: %s", res.Workload, res.Detail)
		}
	}
	return nil
}
