package fd

import (
	"reflect"
	"strings"
	"testing"

	"weakestfd/internal/model"
)

func TestParseSpecRoundTrip(t *testing.T) {
	for _, s := range []string{
		"omega-sigma",
		"perfect",
		"perfect{suspect:10}",
		"eventually-perfect{suspect:10,stabilize:50}",
		"eventually-strong{stabilize:50}",
		"omega-sigma{suspect:3,detect:7,switch:40,policy:fs-on-failure}",
	} {
		spec, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s, err)
		}
		if got := spec.String(); got != s {
			t.Fatalf("round trip %q -> %q", s, got)
		}
		again, err := ParseSpec(spec.String())
		if err != nil || again != spec {
			t.Fatalf("re-parse of %q: %+v, %v", spec.String(), again, err)
		}
	}
}

func TestParseSpecNormalisesKeyOrderAndSpaces(t *testing.T) {
	spec, err := ParseSpec(" eventually-perfect{ stabilize:50 , suspect:10 } ")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if want := "eventually-perfect{suspect:10,stabilize:50}"; spec.String() != want {
		t.Fatalf("canonical form = %q, want %q", spec.String(), want)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, s := range []string{
		"",
		"{suspect:1}",
		"perfect{suspect}",
		"perfect{suspect:-3}",
		"perfect{suspect:x}",
		"perfect{bogus:1}",
		"perfect{policy:maybe}",
		"perfect{suspect:1",
		"perfect{}",
		"perfect{suspect:5,suspect:6}",
		"omega-sigma{policy:os,policy:fs}",
	} {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", s)
		}
	}
}

// TestSplitTopLevel pins the brace-aware splitter ParseSpecList and the CLIs lean on: commas
// and colons inside {...} parameter blocks never split, top-level ones
// always do, empties survive, unbalanced braces error.
func TestSplitTopLevel(t *testing.T) {
	for _, tc := range []struct {
		in   string
		sep  byte
		want []string
	}{
		{"a,b,c", ',', []string{"a", "b", "c"}},
		{"perfect{suspect:2,stabilize:9},omega-sigma", ',', []string{"perfect{suspect:2,stabilize:9}", "omega-sigma"}},
		{"eventually-perfect{suspect:3}:stabilize:200", ':', []string{"eventually-perfect{suspect:3}", "stabilize", "200"}},
		{"", ',', []string{""}},
		{"a,,b", ',', []string{"a", "", "b"}},
		{"{a,b}", ',', []string{"{a,b}"}},
	} {
		got, err := SplitTopLevel(tc.in, tc.sep)
		if err != nil {
			t.Fatalf("SplitTopLevel(%q, %q): %v", tc.in, tc.sep, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("SplitTopLevel(%q, %q) = %q, want %q", tc.in, tc.sep, got, tc.want)
		}
	}
	for _, bad := range []string{"a{b,c", "a}b", "x{y}}"} {
		if _, err := SplitTopLevel(bad, ','); err == nil {
			t.Errorf("SplitTopLevel(%q) accepted unbalanced braces", bad)
		}
	}
}

func TestParseSpecListSplitsTopLevelCommasOnly(t *testing.T) {
	specs, err := ParseSpecList("omega-sigma, perfect{suspect:2}, eventually-perfect{suspect:10,stabilize:50}")
	if err != nil {
		t.Fatalf("ParseSpecList: %v", err)
	}
	var got []string
	for _, s := range specs {
		got = append(got, s.String())
	}
	want := []string{"omega-sigma", "perfect{suspect:2}", "eventually-perfect{suspect:10,stabilize:50}"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("specs = %v, want %v", got, want)
	}
	if _, err := ParseSpecList("perfect{suspect:1"); err == nil {
		t.Fatalf("unbalanced brace accepted")
	}
}

func TestSpecZeroValueIsDefaultFamily(t *testing.T) {
	var spec DetectorSpec
	if got := spec.String(); got != "omega-sigma" {
		t.Fatalf("zero spec renders %q", got)
	}
	pattern := model.NewFailurePattern(3)
	clock := &fakeClock{}
	suite, err := Build(pattern, clock, spec)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if suite.Omega == nil || suite.Sigma == nil || suite.FS == nil || suite.Psi == nil {
		t.Fatalf("default family incomplete: %+v", suite)
	}
	if suite.Suspects != nil {
		t.Fatalf("default family has a suspect list")
	}
}

func TestRegistryBuildsAllClasses(t *testing.T) {
	pattern := model.NewFailurePattern(5)
	clock := &fakeClock{}
	for _, tc := range []struct {
		name                 string
		wantFS, wantSuspects bool
	}{
		{ClassOmegaSigma, true, false},
		{ClassPerfect, true, true},
		{ClassEventuallyPerfect, false, true},
		{ClassEventuallyStrong, false, true},
	} {
		suite, err := Build(pattern, clock, DetectorSpec{Class: tc.name})
		if err != nil {
			t.Fatalf("Build(%s): %v", tc.name, err)
		}
		if suite.Omega == nil || suite.Sigma == nil {
			t.Fatalf("%s: missing Ω or Σ", tc.name)
		}
		if (suite.FS != nil) != tc.wantFS || (suite.Psi != nil) != tc.wantFS {
			t.Fatalf("%s: FS/Ψ presence = %v/%v, want %v", tc.name, suite.FS != nil, suite.Psi != nil, tc.wantFS)
		}
		if (suite.Suspects != nil) != tc.wantSuspects {
			t.Fatalf("%s: Suspects presence = %v, want %v", tc.name, suite.Suspects != nil, tc.wantSuspects)
		}
		if suite.Spec.Class != tc.name {
			t.Fatalf("%s: suite spec = %+v", tc.name, suite.Spec)
		}
	}
}

// TestRegistryAliasesAndUnknown: each class has one spelling. The empty
// class is the default; the alternate names once accepted are refused like
// any unknown class, so one detector never runs under two fingerprints.
func TestRegistryAliasesAndUnknown(t *testing.T) {
	r := DefaultRegistry()
	if got, ok := r.Resolve(""); !ok || got != ClassOmegaSigma {
		t.Fatalf(`Resolve("") = %q, %v`, got, ok)
	}
	for _, class := range []string{"oracle", "p", "diamond-p", "<>p", "diamond-s", "<>s", "nope"} {
		if got, ok := r.Resolve(class); ok {
			t.Errorf("Resolve(%q) = %q, registered", class, got)
		}
		if got := r.Params(class); got != nil {
			t.Errorf("Params(%q) = %v, want nil", class, got)
		}
		_, err := Build(model.NewFailurePattern(2), &fakeClock{}, DetectorSpec{Class: class})
		if err == nil || !strings.Contains(err.Error(), "registered: "+strings.Join(r.Classes(), ", ")) {
			t.Errorf("Build(%q) = %v, want an error naming the registered classes", class, err)
		}
	}
}

func TestRegistryRegisterCustomClass(t *testing.T) {
	r := NewRegistry()
	r.Register("custom", func(env Env, spec DetectorSpec) (*Suite, error) {
		return &Suite{Omega: &OracleOmega{Pattern: env.Pattern, Clock: env.Clock}}, nil
	}, "suspect")
	suite, err := r.Build(Env{Pattern: model.NewFailurePattern(2), Clock: &fakeClock{}}, DetectorSpec{Class: "custom"})
	if err != nil || suite.Omega == nil {
		t.Fatalf("custom class: %v, %+v", err, suite)
	}
	if got := r.Params("custom"); len(got) != 1 || got[0] != "suspect" {
		t.Fatalf("Params(custom) = %v", got)
	}
}

func TestRegistryParamsPerClass(t *testing.T) {
	r := NewRegistry()
	for class, want := range map[string][]string{
		ClassOmegaSigma:        {"suspect", "detect", "switch"},
		ClassPerfect:           {"suspect"},
		ClassEventuallyPerfect: {"suspect", "stabilize"},
		ClassEventuallyStrong:  {"suspect", "stabilize"},
		"":                     {"suspect", "detect", "switch"}, // the default class
	} {
		if got := r.Params(class); !reflect.DeepEqual(got, want) {
			t.Fatalf("Params(%s) = %v, want %v", class, got, want)
		}
	}
	if got := r.Params("nope"); got != nil {
		t.Fatalf("Params(unknown) = %v, want nil", got)
	}
}

func TestSpecParamLookup(t *testing.T) {
	spec := DetectorSpec{Class: ClassOmegaSigma}
	keys := SpecParamKeys()
	want := []string{"suspect", "detect", "stabilize", "switch", "interval", "timeout"}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("SpecParamKeys = %v, want %v", keys, want)
	}
	for i, key := range keys {
		p, ok := spec.Param(key)
		if !ok {
			t.Fatalf("Param(%q) not found", key)
		}
		*p = model.Time(i + 1)
	}
	if _, ok := spec.Param("policy"); ok {
		t.Fatalf("Param(policy) resolved; policy is not a time parameter")
	}
	// The pointers returned by Param alias TimeParams in canonical order.
	for i, p := range spec.TimeParams() {
		if *p != model.Time(i+1) {
			t.Fatalf("param %d = %d after writes through Param", i, *p)
		}
	}
	if want := "omega-sigma{suspect:1,detect:2,stabilize:3,switch:4,interval:5,timeout:6}"; spec.String() != want {
		t.Fatalf("rendered %q, want %q", spec.String(), want)
	}
	if again := MustParseSpec(spec.String()); again != spec {
		t.Fatalf("round trip: %+v != %+v", again, spec)
	}
}

// FuzzParseSpec: whatever ParseSpec accepts, String renders as a spec that
// parses back to the same value and renders the same bytes — parse∘print is
// a fixed point after one step — and a parameter given twice is refused,
// never silently overwritten.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"", "omega-sigma", "perfect{suspect:10}", "eventually-perfect{ stabilize:50 , suspect:10 }",
		"omega-sigma{suspect:3,detect:7,switch:40,policy:fs-on-failure}", "heartbeat{interval:500,timeout:5000}",
		"perfect{suspect:5,suspect:6}", "x{suspect:0}", "a}{suspect:1}", "perfect {suspect:+1}", "{}", "p{",
		"omega-sigma{policy:os}", "p{suspect:9223372036854775807}",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil {
			return
		}
		again, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q) = %+v, whose rendering %q does not parse: %v", s, spec, spec.String(), err)
		}
		if again != spec || again.String() != spec.String() {
			t.Fatalf("ParseSpec(%q) = %+v renders %q, which parses to %+v", s, spec, spec.String(), again)
		}
		if i := strings.IndexByte(s, '{'); i >= 0 && strings.HasSuffix(s, "}") {
			if kv, _, _ := strings.Cut(s[i+1:len(s)-1], ","); kv != "" {
				twice := s[:len(s)-1] + "," + kv + "}"
				if _, err := ParseSpec(twice); err == nil {
					t.Fatalf("ParseSpec(%q) accepted parameter %q given twice", twice, kv)
				}
			}
		}
	})
}
