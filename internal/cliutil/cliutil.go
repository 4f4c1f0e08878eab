// Package cliutil holds the flag-value grammars shared by the schedule-space
// CLIs (cmd/sweep, cmd/explore): seed lists and ranges, delay ranges, crash
// schedules, shard specs, detector-spec axes and protocol names. Both
// drivers accept the same value syntax because they parse it here, exactly
// once.
package cliutil

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"weakestfd/internal/explore"
	"weakestfd/internal/fd"
	"weakestfd/internal/model"
	"weakestfd/internal/scenario"
)

// ParseSeeds parses "1-1000" / "1,2,7-9" / "-5" style seed lists. A single
// pure range becomes an unmaterialised scenario.SeedSpan — the million-seed
// case stays O(1) in memory per shard process; mixed lists are expanded
// explicitly (and capped: a huge axis belongs in one span, not a list).
func ParseSeeds(s string) ([]int64, scenario.SeedSpan, error) {
	var none scenario.SeedSpan
	if strings.TrimSpace(s) == "" {
		return nil, none, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) == 1 {
		if a, b, ok, err := parseSeedRange(parts[0]); err != nil {
			return nil, none, err
		} else if ok {
			steps := seedSteps(a, b)
			if steps >= 1<<40 {
				return nil, none, fmt.Errorf("range %q is too large for one grid", parts[0])
			}
			return nil, scenario.SeedSpan{From: a, N: int(steps + 1)}, nil
		}
	}
	var out []int64
	for _, part := range parts {
		if strings.TrimSpace(part) == "" {
			continue
		}
		a, b, isRange, err := parseSeedRange(part)
		if err != nil {
			return nil, none, err
		}
		if !isRange {
			b = a
		}
		steps := seedSteps(a, b)
		if steps >= maxSeedList-uint64(len(out)) {
			return nil, none, fmt.Errorf("seed list expands past %d entries — use one contiguous range (kept as an unmaterialised span) instead", maxSeedList)
		}
		for i := uint64(0); i <= steps; i++ {
			out = append(out, a+int64(i))
		}
	}
	return out, none, nil
}

// maxSeedList is the most seeds a mixed seed list expands to.
const maxSeedList = 1 << 24

// seedSteps is b-a for a <= b, exact over the whole int64 range: the
// subtraction wraps in int64 but not in uint64.
func seedSteps(a, b int64) uint64 { return uint64(b) - uint64(a) }

// parseSeedRange parses one list element: "a-b" (isRange=true) or a single
// seed "a" (isRange=false, returned in a). The range separator is the first
// '-' after position 0, so negative seeds ("-5", "-9--5") parse too.
func parseSeedRange(part string) (a, b int64, isRange bool, err error) {
	part = strings.TrimSpace(part)
	if v, err := strconv.ParseInt(part, 10, 64); err == nil {
		return v, 0, false, nil
	}
	if len(part) > 1 {
		if idx := strings.Index(part[1:], "-"); idx >= 0 {
			a, err1 := strconv.ParseInt(strings.TrimSpace(part[:idx+1]), 10, 64)
			b, err2 := strconv.ParseInt(strings.TrimSpace(part[idx+2:]), 10, 64)
			if err1 == nil && err2 == nil && b >= a {
				return a, b, true, nil
			}
		}
	}
	return 0, 0, false, fmt.Errorf("bad seed or range %q", part)
}

// ParseDelays parses "min:max[,min:max...]" delay-range lists.
func ParseDelays(s string) ([]scenario.DelayRange, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []scenario.DelayRange
	for _, part := range strings.Split(s, ",") {
		lo, hi, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("bad delay range %q (want min:max)", part)
		}
		min, err1 := time.ParseDuration(strings.TrimSpace(lo))
		max, err2 := time.ParseDuration(strings.TrimSpace(hi))
		if err1 != nil || err2 != nil || max < min || min < 0 {
			return nil, fmt.Errorf("bad delay range %q", part)
		}
		out = append(out, scenario.DelayRange{Min: min, Max: max})
	}
	return out, nil
}

// ParseTimeout parses a run's wall-clock backstop. Zero is the one spelling
// of "none": a negative one would run alike under a second fingerprint.
func ParseTimeout(s string) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err == nil && d < 0 {
		err = fmt.Errorf("negative duration %v (0 means no backstop)", d)
	}
	return d, err
}

// ParseCrashes parses ';'-separated crash schedules of ','-separated p@time
// entries; "-" (or an empty schedule) is the explicit crash-free point. A
// schedule names each process at most once: under crash-stop a second crash
// of a process is a no-op, so it would only give one point two identities.
func ParseCrashes(s string, n int) ([][]scenario.Crash, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out [][]scenario.Crash
	for _, sched := range strings.Split(s, ";") {
		sched = strings.TrimSpace(sched)
		if sched == "" || sched == "-" {
			out = append(out, nil)
			continue
		}
		var crashes []scenario.Crash
		for _, entry := range strings.Split(sched, ",") {
			proc, at, ok := strings.Cut(strings.TrimSpace(entry), "@")
			if !ok {
				return nil, fmt.Errorf("bad crash %q (want p@time)", entry)
			}
			pid, err := strconv.Atoi(strings.TrimSpace(proc))
			if err != nil || pid < 0 || pid >= n {
				return nil, fmt.Errorf("bad crash process %q (n=%d)", proc, n)
			}
			t, err := time.ParseDuration(strings.TrimSpace(at))
			if err != nil || t < 0 {
				return nil, fmt.Errorf("bad crash time %q", at)
			}
			if slices.ContainsFunc(crashes, func(c scenario.Crash) bool { return int(c.P) == pid }) {
				return nil, fmt.Errorf("crash schedule %q crashes process %d twice", sched, pid)
			}
			crashes = append(crashes, scenario.Crash{P: model.ProcessID(pid), At: t})
		}
		out = append(out, crashes)
	}
	return out, nil
}

// ParseShard parses "k/m".
func ParseShard(s string) (scenario.Shard, error) {
	if strings.TrimSpace(s) == "" {
		return scenario.Shard{}, nil
	}
	k, m, ok := strings.Cut(s, "/")
	if !ok {
		return scenario.Shard{}, fmt.Errorf("bad shard %q (want k/m)", s)
	}
	idx, err1 := strconv.Atoi(strings.TrimSpace(k))
	cnt, err2 := strconv.Atoi(strings.TrimSpace(m))
	if err1 != nil || err2 != nil || cnt < 1 || idx < 1 || idx > cnt {
		return scenario.Shard{}, fmt.Errorf("bad shard %q (want k/m with 1 <= k <= m)", s)
	}
	return scenario.Shard{Index: idx, Count: cnt}, nil
}

// ParseDetectors parses a comma-separated detector-spec list (registry
// grammar, commas inside {...} blocks do not split) and validates every
// class against the default registry, so unknown classes fail at flag time
// with the registered alternatives, not mid-sweep.
func ParseDetectors(s string) ([]fd.DetectorSpec, error) {
	specs, err := fd.ParseSpecList(s)
	if err != nil {
		return nil, err
	}
	for _, ds := range specs {
		if _, ok := fd.DefaultRegistry().Resolve(ds.Class); !ok {
			return nil, fmt.Errorf("unknown class %q (registered: %s)", ds.Class, strings.Join(fd.DefaultRegistry().Classes(), ", "))
		}
	}
	return specs, nil
}

// ProtoNames documents the protocol grammar for flag help strings.
const ProtoNames = "consensus, consensus/majority, consensus/registers, consensus/multi[-majority], qc, qc/from-nbac, nbac, twopc, registers, register/majority, extract/sigma[-majority]"

// MaxRounds bounds the rounds of the multi-instance workloads.
// MultiConsensus stands up every round's consensus group before its first
// step, so its memory grows with rounds: at n=3, 20 000 rounds peaked at
// 61.6 MB, and 10^7 would ask for tens of GB. Defaults and the benchmark
// workloads use 8.
const MaxRounds = 1024

// BuildProtocol maps a protocol name onto its scenario descriptor. rounds
// parameterises the multi-instance workloads (at most MaxRounds),
// coordinator the 2PC baseline (validated against n). It is the one path
// from sweep flags, grid files, explore specs and journal metas to a
// protocol.
func BuildProtocol(name string, n, rounds, coordinator int) (scenario.Protocol, error) {
	switch name {
	case "consensus", "consensus/omega-sigma":
		return scenario.Consensus{}, nil
	case "consensus/majority":
		return scenario.Consensus{Majority: true}, nil
	case "consensus/registers":
		return scenario.Consensus{Registers: true}, nil
	case "consensus/multi", "multiconsensus", "consensus/multi-majority":
		if rounds > MaxRounds {
			return nil, fmt.Errorf("rounds: %d past MaxRounds %d for %s (every round's group stands up before the first step)", rounds, MaxRounds, name)
		}
		return scenario.MultiConsensus{Rounds: rounds, Majority: name == "consensus/multi-majority"}, nil
	case "qc", "qc/psi":
		return scenario.QC{}, nil
	case "qc/from-nbac":
		return scenario.NBACQC{}, nil
	case "nbac", "nbac/psi-fs":
		return scenario.NBAC{}, nil
	case "twopc", "nbac/twopc":
		if coordinator < 0 || coordinator >= n {
			return nil, fmt.Errorf("twopc coordinator %d out of range 0..%d", coordinator, n-1)
		}
		return scenario.TwoPC{Coordinator: model.ProcessID(coordinator)}, nil
	case "registers", "register/sigma":
		return scenario.Registers{}, nil
	case "register/majority":
		return scenario.Registers{Majority: true}, nil
	case "extract/sigma":
		return scenario.SigmaExtraction{}, nil
	case "extract/sigma-majority":
		return scenario.SigmaExtraction{Majority: true}, nil
	default:
		return nil, fmt.Errorf("unknown protocol %q", name)
	}
}

// withParam closes a braced fingerprint with the parameter the protocol
// reads (scenario.ProtocolParam), which the descriptors' names do not
// carry. Fingerprints of parameter-free protocols are unchanged.
func withParam(fp string, p scenario.Protocol) string {
	if name, v, ok := scenario.ProtocolParam(p); ok {
		return strings.TrimSuffix(fp, "}") + fmt.Sprintf(";%s=%d}", name, v)
	}
	return fp
}

// GridFingerprint is the identity of a sweep BuildGrid built: the grid's
// fingerprint over the base config plus the protocol's parameter. Campaign
// manifests record it and campaign merge refuses to fold reports that
// disagree on it.
func GridFingerprint(base *scenario.Scenario, grid scenario.Grid, p scenario.Protocol) string {
	return withParam(grid.Fingerprint(base.Config()), p)
}

// ExploreFingerprint is the identity of an exploration's search space:
// explore.SpaceFingerprint plus the protocol's parameter.
func ExploreFingerprint(opts explore.Options) string {
	return withParam(explore.SpaceFingerprint(opts), opts.Proto)
}
