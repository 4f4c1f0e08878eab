package cliutil

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"weakestfd/internal/explore"
	"weakestfd/internal/journal"
	"weakestfd/internal/scenario"
)

func TestParseSeedsFormsAndSpan(t *testing.T) {
	seeds, span, err := ParseSeeds("1,2,7-9")
	if err != nil || span.N != 0 || !reflect.DeepEqual(seeds, []int64{1, 2, 7, 8, 9}) {
		t.Fatalf("mixed list: %v %+v %v", seeds, span, err)
	}
	seeds, span, err = ParseSeeds("5-1000004")
	if err != nil || seeds != nil || span != (scenario.SeedSpan{From: 5, N: 1000000}) {
		t.Fatalf("pure range should become a span: %v %+v %v", seeds, span, err)
	}
	if _, span, err := ParseSeeds("-9--7"); err != nil || span != (scenario.SeedSpan{From: -9, N: 3}) {
		t.Fatalf("negative range: %+v %v", span, err)
	}
	seeds, _, err = ParseSeeds("-9--7,4")
	if err != nil || !reflect.DeepEqual(seeds, []int64{-9, -8, -7, 4}) {
		t.Fatalf("negative range in list: %v %v", seeds, err)
	}
	if _, _, err = ParseSeeds("3-1"); err == nil {
		t.Fatalf("descending range accepted")
	}
	seeds, _, err = ParseSeeds("1,9223372036854775806-9223372036854775807")
	if err != nil || !reflect.DeepEqual(seeds, []int64{1, math.MaxInt64 - 1, math.MaxInt64}) {
		t.Fatalf("range ending at MaxInt64 in a list: %v %v", seeds, err)
	}
	for _, s := range []string{
		"1,-9223372036854775808-9223372036854775807",
		"-9223372036854775808-9223372036854775807",
		"1,0-16777216",
	} {
		if seeds, span, err := ParseSeeds(s); err == nil {
			t.Errorf("ParseSeeds(%q) = %d seeds, span %+v; want a too-large error", s, len(seeds), span)
		}
	}
}

func TestParseDelaysAndCrashes(t *testing.T) {
	delays, err := ParseDelays("0:200us,1ms:50ms")
	if err != nil || len(delays) != 2 || delays[1].Max != 50*time.Millisecond {
		t.Fatalf("delays: %v %v", delays, err)
	}
	crashes, err := ParseCrashes("-;2@300us;0@0s,1@2ms", 3)
	if err != nil || len(crashes) != 3 || crashes[0] != nil || len(crashes[2]) != 2 {
		t.Fatalf("crashes: %v %v", crashes, err)
	}
	if _, err = ParseCrashes("5@1ms", 3); err == nil {
		t.Fatalf("out-of-range crash process accepted")
	}
	// One process twice in a schedule is refused; in separate schedules it
	// is two points.
	if _, err = ParseCrashes("1@1ms,1@2ms", 3); err == nil || !strings.Contains(err.Error(), "process 1 twice") {
		t.Fatalf("a process crashed twice in one schedule: err = %v", err)
	}
	if _, err = ParseCrashes("1@1ms;1@2ms", 3); err != nil {
		t.Fatalf("one process in two schedules: %v", err)
	}
}

func TestParseDetectorsValidatesRegistry(t *testing.T) {
	specs, err := ParseDetectors("omega-sigma,heartbeat{interval:500},eventually-strong{stabilize:50}")
	if err != nil || len(specs) != 3 {
		t.Fatalf("detector list: %v %v", specs, err)
	}
	if _, err = ParseDetectors("no-such-class"); err == nil {
		t.Fatalf("unknown detector class accepted")
	}
}

func TestParseShard(t *testing.T) {
	sh, err := ParseShard("3/8")
	if err != nil || sh != (scenario.Shard{Index: 3, Count: 8}) {
		t.Fatalf("shard: %+v %v", sh, err)
	}
	for _, bad := range []string{"0/4", "5/4", "x/2", "3"} {
		if _, err := ParseShard(bad); err == nil {
			t.Errorf("shard %q accepted", bad)
		}
	}
}

func TestBuildProtocolNames(t *testing.T) {
	for _, name := range []string{"consensus", "consensus/multi", "qc", "nbac", "twopc", "registers", "extract/sigma"} {
		if _, err := BuildProtocol(name, 5, 4, 0); err != nil {
			t.Errorf("BuildProtocol(%s): %v", name, err)
		}
	}
	if _, err := BuildProtocol("twopc", 3, 1, 7); err == nil {
		t.Errorf("out-of-range coordinator accepted")
	}
	if _, err := BuildProtocol("nope", 3, 1, 0); err == nil {
		t.Errorf("unknown protocol accepted")
	}
}

func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var pf ProfileFlags
	pf.Register(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	if err := pf.Start(); err != nil {
		t.Fatal(err)
	}
	pf.Stop()
	for _, path := range []string{cpu, mem} {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if info.Size() == 0 {
			t.Fatalf("profile %s is empty", path)
		}
	}

	// Disabled flags are a no-op on both sides.
	var off ProfileFlags
	if err := off.Start(); err != nil {
		t.Fatalf("disabled Start: %v", err)
	}
	off.Stop()
}

// TestRetiredConfigFieldsStillLoad: artifacts written before the scenario
// Config lost its serial-broadcast and free-running toggles carry both fields
// (always false — no CLI could set them) in every embedded Config. A sweep
// report's failure block and a journal's meta config with the fields present
// must still load, and the journal must still replay.
func TestRetiredConfigFieldsStillLoad(t *testing.T) {
	// Spelled in halves so a grep for the deleted identifiers over the Go
	// sources stays empty.
	serial, free := []byte(`"Serial`+`Broadcast":false,`), []byte(`"Free`+`Running":false,`)
	withRetired := func(data []byte) []byte {
		out := bytes.Replace(data, []byte(`"HistoryLimit":`), append(serial, `"HistoryLimit":`...), 1)
		out = bytes.Replace(out, []byte(`"Journal":`), append(free, `"Journal":`...), 1)
		if !bytes.Contains(out, serial) || !bytes.Contains(out, free) {
			t.Fatalf("retired fields not injected into %s", data)
		}
		return out
	}
	ctx := context.Background()
	res := scenario.New(4, scenario.WithSeed(131), scenario.WithJournal(scenario.JournalAll)).Run(ctx, scenario.Consensus{})
	if res.Journal == nil {
		t.Fatalf("no journal: verdict %v", res.Verdict)
	}

	cfg := res.Journal.Meta.Config
	var want scenario.Config
	if err := json.Unmarshal(cfg, &want); err != nil {
		t.Fatalf("parse journal config: %v", err)
	}
	report, err := json.Marshal(SweepReport{
		SchemaVersion: ReportSchemaVersion, Proto: res.Protocol, N: 4, GridSize: 1, IndexHi: 1, Runs: 1, Faulted: 1,
		Failures: []FailureReport{{Violations: []string{"v"}, Fingerprint: "f", Config: want}},
	})
	if err != nil {
		t.Fatalf("encode report: %v", err)
	}
	sw, _, err := ReadAnyReport("old report", withRetired(report))
	if err != nil {
		t.Fatalf("report with retired fields refused: %v", err)
	}
	if got := sw.Failures[0].Config; got.Key() != want.Key() {
		t.Fatalf("failure config changed on load:\n%s\n%s", got.Key(), want.Key())
	}

	data, err := res.Journal.Encode()
	if err != nil {
		t.Fatalf("encode journal: %v", err)
	}
	j, err := journal.Decode(withRetired(data))
	if err != nil {
		t.Fatalf("journal with retired fields refused: %v", err)
	}
	rr, err := scenario.Replay(ctx, scenario.Consensus{}, j)
	if err != nil || !rr.OK() {
		t.Fatalf("journal with retired fields did not replay: %v %+v", err, rr.Divergence)
	}
}

// TestFixturesReplay re-executes every committed fixture journal
// (internal/journal/testdata, one per protocol family) and requires a
// record-for-record match ending on the journal's own trace fingerprint.
// The fixtures predate the meta's protocol parameter, so they replay at the
// defaults JournalProtocol reads a parameter-free meta as.
func TestFixturesReplay(t *testing.T) {
	paths, err := filepath.Glob("../journal/testdata/*.journal")
	if err != nil || len(paths) < 8 {
		t.Fatalf("want the 8 fixture journals, got %v (%v)", paths, err)
	}
	ctx := context.Background()
	for _, path := range paths {
		j, err := journal.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var cfg scenario.Config
		if err := json.Unmarshal(j.Meta.Config, &cfg); err != nil {
			t.Fatalf("%s: config: %v", path, err)
		}
		proto, err := JournalProtocol(j.Meta, cfg.N)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		rr, err := scenario.Replay(ctx, proto, j)
		switch {
		case err != nil:
			t.Errorf("%s: replay: %v", path, err)
		case !rr.OK() || rr.Matched != len(j.Records):
			t.Errorf("%s: diverged after %d of %d records: %v", path, rr.Matched, len(j.Records), rr.Divergence)
		case rr.Result.TraceFingerprint != j.Meta.TraceFingerprint:
			t.Errorf("%s: replayed fingerprint %s, journal's %s", path, rr.Result.TraceFingerprint, j.Meta.TraceFingerprint)
		}
	}
}

// TestReadSpecRefusals pins the strict spec loader: an unknown key and a
// second document after the first are refused, naming the file; whitespace
// after the one document is not trailing data.
func TestReadSpecRefusals(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name, body, refusal string
	}{
		{"valid", `{"proto":"consensus","n":3,"seeds":"1-2","timeout":"5s"}` + "\n\n", ""},
		{"unknown-key", `{"proto":"consensus","n":3,"seed":"1-2","timeout":"5s"}`, `unknown field "seed"`},
		{"second-document", `{"proto":"consensus","n":3}` + "\n" + `{"proto":"nbac"}`, "trailing data"},
		{"trailing-garbage", `{"proto":"consensus"} x`, "trailing data"},
		{"truncated", `{"proto":"consensus"`, "unexpected EOF"},
	} {
		path := filepath.Join(dir, tc.name+".json")
		if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		var sp GridSpec
		err := ReadSpec(path, &sp)
		switch {
		case tc.refusal == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.refusal == "" && (sp.Proto != "consensus" || sp.Seeds != "1-2"):
			t.Errorf("%s: decoded %+v", tc.name, sp)
		case tc.refusal != "" && (err == nil || !strings.Contains(err.Error(), tc.refusal) || !strings.Contains(err.Error(), path)):
			t.Errorf("%s: err = %v, want a refusal naming %s and containing %q", tc.name, err, path, tc.refusal)
		}
	}
}

// TestFingerprintsCoverProtocolParams: the grid and space fingerprints name
// the parameter a protocol reads — rounds for the multi-instance workloads,
// the twopc coordinator — so sweeps of different workloads over one grid
// never share an identity, while the fingerprints of parameter-free
// protocols stay exactly the grid's and the space's own.
func TestFingerprintsCoverProtocolParams(t *testing.T) {
	gridFP := func(sp GridSpec) string {
		t.Helper()
		base, grid, p, err := BuildGrid(sp)
		if err != nil {
			t.Fatalf("build grid %+v: %v", sp, err)
		}
		return GridFingerprint(base, grid, p)
	}
	spaceFP := func(sp GridSpec) string {
		t.Helper()
		p, err := BuildProtocol(sp.Proto, sp.N, sp.Rounds, sp.Coordinator)
		if err != nil {
			t.Fatal(err)
		}
		return ExploreFingerprint(explore.Options{Runs: 8, Proto: p, Base: scenario.New(sp.N).Config()})
	}
	spec := func(proto string, rounds, coordinator int) GridSpec {
		sp := DefaultGridSpec()
		sp.Proto, sp.N, sp.Seeds, sp.Rounds, sp.Coordinator = proto, 4, "1-4", rounds, coordinator
		return sp
	}
	for _, fp := range []func(GridSpec) string{gridFP, spaceFP} {
		for _, tc := range []struct {
			a, b  GridSpec
			param string
		}{
			{spec("consensus/multi", 8, 0), spec("consensus/multi", 2, 0), ";rounds=8}"},
			{spec("consensus/multi-majority", 8, 0), spec("consensus/multi-majority", 2, 0), ";rounds=8}"},
			{spec("twopc", 8, 0), spec("twopc", 8, 3), ";coordinator=0}"},
		} {
			a, b := fp(tc.a), fp(tc.b)
			if a == b {
				t.Errorf("%s: %+v and %+v share the fingerprint %s", tc.a.Proto, tc.a, tc.b, a)
			}
			if !strings.HasSuffix(a, tc.param) {
				t.Errorf("%s: fingerprint %s does not end in %s", tc.a.Proto, a, tc.param)
			}
		}
		// Zero rounds runs one instance, like one round.
		if a, b := fp(spec("consensus/multi", 0, 0)), fp(spec("consensus/multi", 1, 0)); a != b {
			t.Errorf("rounds 0 and 1 run the same instances but fingerprint %s and %s", a, b)
		}
		if a, b := fp(spec("consensus", 8, 0)), fp(spec("consensus", 2, 3)); a != b {
			t.Errorf("consensus reads no parameter but fingerprints %s and %s", a, b)
		}
	}
	base, grid, _, err := BuildGrid(spec("consensus", 8, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := gridFP(spec("consensus", 8, 0)), grid.Fingerprint(base.Config()); got != want {
		t.Errorf("parameter-free grid fingerprint changed:\n got %s\nwant %s", got, want)
	}
	opts := explore.Options{Runs: 8, Proto: scenario.Consensus{}, Base: scenario.New(4).Config()}
	if got, want := ExploreFingerprint(opts), explore.SpaceFingerprint(opts); got != want {
		t.Errorf("parameter-free space fingerprint changed:\n got %s\nwant %s", got, want)
	}
}

// TestBuildGridEmptyTimeout: a spec without a timeout keeps the scenario's
// default backstop instead of failing to parse. A drop rate the network
// cannot honour (outside [0, 1], or NaN) and a negative timeout (a second
// spelling of "no backstop") are refused by the loader, naming the key.
func TestBuildGridEmptyTimeout(t *testing.T) {
	base, _, _, err := BuildGrid(GridSpec{Proto: "consensus", N: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := base.Config().Timeout, scenario.New(3).Config().Timeout; got != want {
		t.Fatalf("timeout %v, want the scenario default %v", got, want)
	}
	for _, c := range []struct {
		drop    float64
		timeout string
		refuse  string
	}{
		{drop: 0}, {drop: 0.5}, {drop: 1}, {timeout: "0s"}, {timeout: "1ms"},
		{drop: 2, refuse: "drop:"},
		{drop: -1, refuse: "drop:"},
		{drop: math.NaN(), refuse: "drop:"},
		{drop: math.Inf(1), refuse: "drop:"},
		{drop: math.Copysign(0, -1)},
		{timeout: "-1s", refuse: "timeout:"},
		{timeout: "-1ns", refuse: "timeout:"},
	} {
		sp := GridSpec{Proto: "consensus", N: 3, Drop: c.drop, Timeout: c.timeout}
		base, _, _, err := BuildGrid(sp)
		switch {
		case c.refuse == "" && err != nil:
			t.Errorf("drop %v timeout %q refused: %v", c.drop, c.timeout, err)
		case c.refuse != "" && (err == nil || !strings.HasPrefix(err.Error(), c.refuse)):
			t.Errorf("drop %v timeout %q: error %v, want one starting %q", c.drop, c.timeout, err, c.refuse)
		case c.refuse == "" && !strings.Contains(base.Config().Key(), fmt.Sprintf(" drop=%g ", math.Abs(c.drop))):
			t.Errorf("drop %v built as %s", c.drop, base.Config().Key())
		}
	}
}
