package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// The end-to-end run measures what a user of the laboratory waits for: the
// CLIs are built from source once per set-up, then a workload's invocations
// run one child process at a time and are measured from outside — wall
// clock around each child, CPU time and peak RSS from its rusage. Nothing in
// this file imports the code under test.

// tools are the CLIs a set-up builds.
var tools = []string{"sweep", "explore", "campaign", "replay"}

// env is where a benchmark run lives on disk.
type env struct {
	root     string // the checkout: BENCHMARK.json, go.mod, cmd/, internal/
	benchDir string // root/bench: golden digests, history, span dumps
	buildDir string // scratch: built CLIs and round artifacts
	workers  int    // -workers handed to every fan-out CLI
}

// findRoot walks up from the working directory to the checkout root, which
// is the directory holding BENCHMARK.json beside the repo's go.mod.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no checkout root (BENCHMARK.json beside go.mod) above the working directory")
		}
		dir = parent
	}
}

func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	return &env{
		root:     root,
		benchDir: filepath.Join(root, "bench"),
		buildDir: filepath.Join(root, ".bench_build"),
		workers:  min(runtime.NumCPU(), 4),
	}, nil
}

func (e *env) binDir() string { return filepath.Join(e.buildDir, "bin") }

func (e *env) workDir(workload string) string {
	return filepath.Join(e.buildDir, "work", workload)
}

// setUp is one full set-up: build the four CLIs from source into an emptied
// bin directory, then generate the workload's inputs. It returns the plan
// and how long it took. The Go build cache is whatever the environment
// names (run.sh keeps it inside the checkout), so only the first set-up in
// a fresh checkout compiles; later ones pay the dependency scan and the
// links — which is why a run sets up several times and reports the median.
func (e *env) setUp(ctx context.Context, w workload, seed int64) (*plan, float64, error) {
	start := time.Now()
	if err := os.RemoveAll(e.binDir()); err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(e.binDir(), 0o755); err != nil {
		return nil, 0, err
	}
	build := exec.CommandContext(ctx, "go", "build", "-o", e.binDir()+string(filepath.Separator), "./cmd/...")
	build.Dir = e.root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, 0, fmt.Errorf("build the CLIs: %v\n%s", err, out)
	}
	for _, tool := range tools {
		if _, err := os.Stat(filepath.Join(e.binDir(), tool)); err != nil {
			return nil, 0, fmt.Errorf("build the CLIs: %v", err)
		}
	}
	dir := e.workDir(w.name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	p, err := makePlan(w, seed, e.workers, dir)
	if err != nil {
		return nil, 0, fmt.Errorf("generate inputs: %w", err)
	}
	return p, time.Since(start).Seconds(), nil
}

// invocationTimeout is the harness's own backstop on one child, far above
// any invocation's expected time: a child that is still running then is
// killed and its units count as failed. Each invocation that takes a
// -timeout flag also gets one (see makePlan).
const invocationTimeout = 150 * time.Second

// roundResult is one execution of a workload's invocation sequence.
type roundResult struct {
	wall       float64 // seconds inside the children, summed
	cpu        float64 // children's user+sys seconds, summed
	rssMB      float64 // largest child's peak resident set (VmHWM)
	attempted  int
	failed     int
	digest     string
	complaints []string
}

// runRound executes the plan once: every invocation in order, one child at
// a time, then reads the artifacts back.
func (e *env) runRound(ctx context.Context, p *plan) (roundResult, error) {
	var r roundResult
	if err := p.resetOutputs(); err != nil {
		return r, err
	}
	exitFailed := make([]bool, len(p.groups))
	for _, inv := range p.invocations {
		ictx, cancel := context.WithTimeout(ctx, invocationTimeout)
		cmd := exec.CommandContext(ictx, filepath.Join(e.binDir(), inv.tool), inv.args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		start := time.Now()
		err := cmd.Start()
		if err == nil {
			peak := watchPeakRSS(cmd.Process.Pid)
			err = cmd.Wait()
			r.rssMB = max(r.rssMB, peak())
		}
		r.wall += time.Since(start).Seconds()
		cancel()
		if cmd.ProcessState != nil { // nil when the child never started
			if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && ru != nil {
				r.cpu += tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
			}
		}
		if ctx.Err() != nil {
			return r, ctx.Err()
		}
		if err != nil {
			exitFailed[inv.group] = true
			r.complaints = append(r.complaints, fmt.Sprintf("%s %s: %v: %s", inv.tool, strings.Join(inv.args, " "), err, lastLine(stderr.String())))
		}
	}
	rc := checkArtifacts(p)
	r.digest = rc.digest
	r.complaints = append(r.complaints, rc.complaints...)
	for g, grp := range p.groups {
		r.attempted += grp.units
		if exitFailed[g] {
			r.failed += grp.units
		} else {
			r.failed += rc.failed[g]
		}
	}
	return r, nil
}

// rssPollInterval is how often a running child's VmHWM is read.
const rssPollInterval = 10 * time.Millisecond

// watchPeakRSS samples the peak resident set (VmHWM, in MB) of process pid
// until the returned function is called, which must be after the process
// has been waited for. The child's rusage cannot serve: on Linux a child's
// ru_maxrss starts from the high-water mark of the address space it was
// forked from, so a child smaller than the benchmark program itself would
// report the benchmark program's RSS. VmHWM belongs to the child's own
// address space; what the samples miss is growth in the child's last
// rssPollInterval.
func watchPeakRSS(pid int) (stop func() float64) {
	done := make(chan struct{})
	result := make(chan float64)
	go func() {
		var peakKB float64
		f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			<-done
			result <- 0
			return
		}
		defer f.Close()
		buf := make([]byte, 4096)
		tick := time.NewTicker(rssPollInterval)
		defer tick.Stop()
		for {
			if n, _ := f.ReadAt(buf, 0); n > 0 {
				if _, rest, ok := strings.Cut(string(buf[:n]), "VmHWM:"); ok {
					var kb float64
					if _, err := fmt.Sscan(rest, &kb); err == nil {
						peakKB = max(peakKB, kb)
					}
				}
			}
			select {
			case <-done:
				result <- peakKB / 1024
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-result
	}
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		s = s[i+1:]
	}
	return s
}

// metric is one reported figure: the median over its samples, with the
// range and the sample count beside it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Samples int     `json:"samples"`
}

func metricOf(unit string, samples []float64) metric {
	lo, hi := minMax(samples)
	return metric{Value: median(samples), Unit: unit, Min: lo, Max: hi, Samples: len(samples)}
}

// result is everything one run of one workload produced.
type result struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Scale       string            `json:"scale"`
	Traced      bool              `json:"traced"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	FailedShare float64           `json:"failed_share"`
	Digest      string            `json:"digest"`
	Metrics     map[string]metric `json:"metrics"`
	// Exact holds the machine-independent counts of a traced run: they must
	// repeat bit-for-bit per seed.
	Exact      map[string]float64 `json:"exact,omitempty"`
	Complaints []string           `json:"complaints,omitempty"`
}

// runOptions sizes one end-to-end run.
type runOptions struct {
	seed         int64
	scale        scale
	seconds      float64 // keep starting rounds until this much time is measured
	minRounds    int
	setups       int
	updateGolden bool
}

// setupRepeats is how many times a run sets up: the reported setup_s is
// their median, so one cold compile in a fresh checkout does not set it.
const setupRepeats = 3

// runEndToEnd sets the workload up, runs rounds of it for the requested
// time and reduces them to the end-to-end metrics.
func (e *env) runEndToEnd(ctx context.Context, w workload, o runOptions) (*result, error) {
	res := &result{Workload: w.name, Seed: o.seed, Scale: o.scale.name, Metrics: map[string]metric{}}
	var p *plan
	var setups []float64
	for i := 0; i < max(1, o.setups); i++ {
		var s float64
		var err error
		if p, s, err = e.setUp(ctx, w, o.seed); err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}

	var rate, cpu, rss []float64
	digests := map[string]int{}
	start := time.Now()
	for rounds := 0; rounds < max(1, o.minRounds) || time.Since(start).Seconds() < o.seconds; rounds++ {
		r, err := e.runRound(ctx, p)
		if err != nil {
			return nil, err
		}
		units := float64(r.attempted)
		rate = append(rate, units/r.wall)
		cpu = append(cpu, r.cpu/units*1000)
		rss = append(rss, r.rssMB)
		res.Attempted += r.attempted
		res.Failed += r.failed
		res.Digest = r.digest
		digests[r.digest]++
		for _, c := range r.complaints {
			res.Complaints = append(res.Complaints, fmt.Sprintf("round %d: %s", rounds, c))
		}
	}
	res.Metrics["setup_s"] = metricOf("s", setups)
	res.Metrics["runs_per_s"] = metricOf("1/s", rate)
	res.Metrics["cpu_s_per_krun"] = metricOf("s", cpu)
	// A round's peak is the live heap plus whatever garbage the collector's
	// timing left standing (identical n=200 rounds read 47 to 65 MB). Over
	// ten seeds the mean of the rounds was the steadiest summary on the two
	// noisiest workloads (spread 4.7% and 4.1%; the median 7.8% and 3.7%,
	// the minimum 2.7% and 7.6%), so that is what is reported.
	peak := metricOf("MB", rss)
	peak.Value = sum(rss) / float64(len(rss))
	res.Metrics["peak_rss_mb"] = peak
	res.FailedShare = float64(res.Failed) / float64(res.Attempted)

	res.Correct = res.Failed == 0
	if len(digests) != 1 {
		res.Correct = false
		res.Complaints = append(res.Complaints, fmt.Sprintf("rounds disagree: %d distinct output digests from identical inputs", len(digests)))
	}
	if err := e.checkGolden(res, o.updateGolden); err != nil {
		return nil, err
	}
	return res, nil
}

// checkGolden compares a default-seed result's digest with the committed
// one, or records it when asked to. Other seeds have no golden: their check
// is the verdict counts, the replays and the agreement between rounds.
func (e *env) checkGolden(res *result, update bool) error {
	if res.Seed != defaultSeed {
		return nil
	}
	if update {
		if !res.Correct {
			return fmt.Errorf("%s: refusing to record a golden digest from a run that failed its checks: %s", res.Workload, strings.Join(res.Complaints, "; "))
		}
		return writeGolden(e.benchDir, res.Workload, res.Scale, res.Digest)
	}
	want, err := readGolden(e.benchDir, res.Workload, res.Scale)
	if err != nil {
		return err
	}
	switch {
	case want == "":
		res.Correct = false
		res.Complaints = append(res.Complaints, fmt.Sprintf("no golden digest for scale %s; record one with -update-golden", res.Scale))
	case want != res.Digest:
		res.Correct = false
		res.Complaints = append(res.Complaints, fmt.Sprintf("output digest %s differs from golden %s", res.Digest, want))
	}
	return nil
}
