package fd

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"weakestfd/internal/model"
)

// DetectorSpec is the declarative description of one detector family: a
// registry class name plus quality parameters. It is the unit the scenario
// harness, the minimiser and the sweep CLI pass around: comparable, JSON- and
// flag-serialisable, with a canonical String form that doubles as its
// fingerprint. The zero value is the exact paper family — "omega-sigma" with
// crashes visible immediately and Ψ switching at time zero.
//
// All delays are logical ticks of the run's clock, except the heartbeat
// pacing parameters, which message-passing classes read as microseconds of
// virtual time. Which parameters matter depends on the class:
//
//	omega-sigma        suspicion (Σ/Ω lag), detection (FS lag), switch + policy (Ψ)
//	perfect            suspicion (completeness lag; accuracy stays perpetual)
//	eventually-perfect suspicion, stabilize (end of the false-suspicion prefix)
//	eventually-strong  suspicion, stabilize
//	heartbeat          interval, timeout (virtual-time µs; internal/fdimpl)
//
// Parameters a class does not consume are ignored by its builder; the
// registry records which keys each class consumes (Registry.Params), which
// is what mutation and frontier searches enumerate.
type DetectorSpec struct {
	// Class is the registry name of the detector family; empty means
	// "omega-sigma", the paper's (Ω, Σ, FS, Ψ) oracle family.
	Class string `json:"class,omitempty"`
	// SuspicionDelay is how many ticks after a crash the crashed process
	// keeps being trusted (appears in Σ quorums, as an Ω leader candidate,
	// outside suspect lists).
	SuspicionDelay model.Time `json:"suspicion,omitempty"`
	// DetectionDelay is how many ticks after the first crash the FS signal
	// turns red.
	DetectionDelay model.Time `json:"detection,omitempty"`
	// StabilizeAfter is when the ◇ classes end their false-suspicion prefix.
	StabilizeAfter model.Time `json:"stabilize,omitempty"`
	// PsiSwitchAfter is the tick at which Ψ leaves ⊥.
	PsiSwitchAfter model.Time `json:"psi_switch,omitempty"`
	// HeartbeatInterval is the pacing of message-passing detector classes,
	// in microseconds of virtual time (0 = the implementation's default).
	HeartbeatInterval model.Time `json:"hb_interval,omitempty"`
	// HeartbeatTimeout is the silence threshold of message-passing detector
	// classes, in microseconds of virtual time (0 = the implementation's
	// default).
	HeartbeatTimeout model.Time `json:"hb_timeout,omitempty"`
	// PsiPolicy selects Ψ's regime at switch time.
	PsiPolicy PsiPolicy `json:"psi_policy,omitempty"`
}

// ParamDir classifies how a quality parameter's value relates to detector
// strength — the monotonicity contract a frontier bisection leans on.
type ParamDir int

const (
	// DirNone: the parameter has no monotone quality convention; searches
	// must skip it. The direction of unknown keys.
	DirNone ParamDir = iota
	// DirWeakens: the degradation convention — 0 is the exact detector and
	// larger values are strictly weaker quality.
	DirWeakens
	// DirStrengthens: the inverted convention of the heartbeat pacing
	// parameters — 0 means "the implementation's default", and among
	// positive values a larger one is *stronger* (a longer timeout tolerates
	// more delay). A search over such an axis looks for the smallest
	// positive value that still passes, never probing 0.
	DirStrengthens
)

// String renders the direction for error messages.
func (d ParamDir) String() string {
	switch d {
	case DirWeakens:
		return "weakens"
	case DirStrengthens:
		return "strengthens"
	}
	return "none"
}

// specParam is one named quality parameter of the spec grammar, in canonical
// render order. One table drives parsing, rendering and the minimiser's
// shrink dimensions. dir records each parameter's monotone quality
// convention: the degradation axes weaken (0 is the exact detector and
// larger values are strictly weaker), while the heartbeat pacing parameters
// strengthen among positive values (0 means "the implementation's default"
// and a larger timeout is *stronger*) — searches pick their bracket per
// direction (fd.ParamDirection).
var specParams = []struct {
	key string
	dir ParamDir
	get func(*DetectorSpec) *model.Time
}{
	{"suspect", DirWeakens, func(s *DetectorSpec) *model.Time { return &s.SuspicionDelay }},
	{"detect", DirWeakens, func(s *DetectorSpec) *model.Time { return &s.DetectionDelay }},
	{"stabilize", DirWeakens, func(s *DetectorSpec) *model.Time { return &s.StabilizeAfter }},
	{"switch", DirWeakens, func(s *DetectorSpec) *model.Time { return &s.PsiSwitchAfter }},
	{"interval", DirStrengthens, func(s *DetectorSpec) *model.Time { return &s.HeartbeatInterval }},
	{"timeout", DirStrengthens, func(s *DetectorSpec) *model.Time { return &s.HeartbeatTimeout }},
}

// ParamDirection reports the named parameter's monotone quality convention;
// DirNone for unknown keys.
func ParamDirection(key string) ParamDir {
	for _, p := range specParams {
		if p.key == key {
			return p.dir
		}
	}
	return DirNone
}

// TimeParams returns pointers to the spec's logical-tick quality parameters,
// in canonical order — the dimensions a shrinker (scenario.Minimize) bisects.
func (s *DetectorSpec) TimeParams() []*model.Time {
	out := make([]*model.Time, len(specParams))
	for i, p := range specParams {
		out[i] = p.get(s)
	}
	return out
}

// SpecParamKeys returns the grammar keys of the quality parameters, in
// canonical render order — the full axis alphabet a mutation or frontier
// search can enumerate (restrict it per class with Registry.Params).
func SpecParamKeys() []string {
	out := make([]string, len(specParams))
	for i, p := range specParams {
		out[i] = p.key
	}
	return out
}

// Param returns a pointer to the quality parameter named by the grammar key,
// or false for an unknown key. It is the programmatic form of the spec
// grammar, used by the frontier search and the config mutators to perturb
// one named axis.
func (s *DetectorSpec) Param(key string) (*model.Time, bool) {
	for _, p := range specParams {
		if p.key == key {
			return p.get(s), true
		}
	}
	return nil, false
}

// Zeroed returns the spec with every quality parameter reset: the same class
// at its exact, perturbation-free quality.
func (s DetectorSpec) Zeroed() DetectorSpec {
	return DetectorSpec{Class: s.Class}
}

// className returns the spec's class with the default applied.
func (s DetectorSpec) className() string {
	if s.Class == "" {
		return ClassOmegaSigma
	}
	return s.Class
}

// String renders the spec canonically in the registry grammar:
// "class{key:value,...}" with zero-valued parameters omitted and keys in
// fixed order, or just "class" for an unperturbed spec. The rendering is
// parseable by ParseSpec and byte-stable, so it serves as the spec's
// fingerprint in result fingerprints and minimiser memos.
func (s DetectorSpec) String() string {
	var parts []string
	for _, p := range specParams {
		if v := *p.get(&s); v != 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", p.key, v))
		}
	}
	if s.PsiPolicy != PreferOmegaSigma {
		parts = append(parts, "policy:fs-on-failure")
	}
	if len(parts) == 0 {
		return s.className()
	}
	return s.className() + "{" + strings.Join(parts, ",") + "}"
}

// ParseSpec parses the registry grammar: a class name, optionally followed by
// "{key:value,...}" quality parameters. Keys are suspect, detect, stabilize,
// switch (logical-tick integers) and policy (omega-sigma | fs-on-failure),
// each at most once: a repeated key is refused, not overwritten.
// Examples:
//
//	omega-sigma
//	perfect{suspect:10}
//	eventually-perfect{suspect:10,stabilize:50}
//	omega-sigma{switch:40,policy:fs-on-failure}
//
// The class is checked by the registry at build time, not here; a parsed
// spec round-trips through String unchanged.
func ParseSpec(s string) (DetectorSpec, error) {
	var spec DetectorSpec
	s = strings.TrimSpace(s)
	body, hasBody := "", false
	if i := strings.IndexByte(s, '{'); i >= 0 {
		if !strings.HasSuffix(s, "}") {
			return spec, fmt.Errorf("detector spec %q: unterminated parameter block", s)
		}
		body, hasBody = s[i+1:len(s)-1], true
		s = s[:i]
	}
	if s == "" {
		return spec, fmt.Errorf("detector spec: empty class name")
	}
	spec.Class = s
	if !hasBody {
		return spec, nil
	}
	if strings.TrimSpace(body) == "" {
		return spec, fmt.Errorf("detector spec %q: empty parameter block", s)
	}
	var seen []string
	for _, kv := range strings.Split(body, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), ":")
		if !ok {
			return spec, fmt.Errorf("detector spec %q: bad parameter %q (want key:value)", s, kv)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if slices.Contains(seen, key) {
			return spec, fmt.Errorf("detector spec %q: parameter %q given twice", s, key)
		}
		seen = append(seen, key)
		if key == "policy" {
			switch val {
			case "omega-sigma", "os":
				spec.PsiPolicy = PreferOmegaSigma
			case "fs-on-failure", "fs":
				spec.PsiPolicy = PreferFSOnFailure
			default:
				return spec, fmt.Errorf("detector spec %q: unknown policy %q", s, val)
			}
			continue
		}
		found := false
		for _, p := range specParams {
			if p.key == key {
				ticks, err := strconv.ParseInt(val, 10, 64)
				if err != nil || ticks < 0 {
					return spec, fmt.Errorf("detector spec %q: bad %s value %q (want logical ticks >= 0)", s, key, val)
				}
				*p.get(&spec) = model.Time(ticks)
				found = true
				break
			}
		}
		if !found {
			return spec, fmt.Errorf("detector spec %q: unknown parameter %q", s, key)
		}
	}
	return spec, nil
}

// MustParseSpec is ParseSpec for static spec literals; it panics on error.
func MustParseSpec(s string) DetectorSpec {
	spec, err := ParseSpec(s)
	if err != nil {
		panic(err)
	}
	return spec
}

// SplitTopLevel splits s on sep, ignoring separators nested inside {...}
// parameter blocks — the brace-aware splitter every list grammar carrying
// detector specs needs (a spec like "perfect{suspect:3,stabilize:9}" embeds
// both commas and colons). Empty elements are preserved; unbalanced braces
// are an error.
func SplitTopLevel(s string, sep byte) ([]string, error) {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '{':
			depth++
		case '}':
			depth--
			if depth < 0 {
				return nil, errors.New("unbalanced '}'")
			}
		case sep:
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if depth != 0 {
		return nil, errors.New("unbalanced '{'")
	}
	return append(out, s[start:]), nil
}

// ParseSpecList splits a list of specs on top-level commas (commas inside a
// {...} parameter block do not split) and parses each non-empty element —
// the format of the sweep CLI's -detectors axis.
func ParseSpecList(s string) ([]DetectorSpec, error) {
	parts, err := SplitTopLevel(s, ',')
	if err != nil {
		return nil, fmt.Errorf("detector list %q: %w", s, err)
	}
	var out []DetectorSpec
	for _, part := range parts {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		spec, err := ParseSpec(part)
		if err != nil {
			return nil, err
		}
		out = append(out, spec)
	}
	return out, nil
}

// Suite is the full detector side of one run, built from a DetectorSpec over
// a live failure pattern: one system-wide source per detector the paper's
// protocols consume. Fields the spec's class cannot honestly provide are nil
// — e.g. the ◇ classes yield no FS or Ψ (false suspicion would violate their
// accuracy clauses) — and protocols requiring a missing detector must refuse
// to set up, which is how a sweep reports "this class does not solve this
// problem" rather than silently faking the detector.
type Suite struct {
	// Spec is the specification the suite was built from.
	Spec DetectorSpec
	// Omega is the leader detector Ω, or nil.
	Omega OmegaSource
	// Sigma is the quorum detector Σ (possibly a derived emulation whose
	// liveness needs a correct majority — see SuspectSigma), or nil.
	Sigma SigmaSource
	// FS is the failure-signal detector, or nil.
	FS FSSource
	// Psi is the detector Ψ, or nil.
	Psi PsiSource
	// Suspects is the Chandra–Toueg suspect-list view, nil unless the class
	// is one of P, ◇P, ◇S.
	Suspects SuspectSource
	// Stop tears down whatever the builder stood up (message-passing
	// classes run background protocols per process); nil for the oracle
	// classes, which have nothing to stop. Callers that Build a suite own
	// calling it.
	Stop func()
}

// Env is the build context a detector class constructs its suite over: the
// live failure pattern and clock every class needs, plus the hooks only some
// classes consume.
type Env struct {
	// Pattern is the run's live failure pattern.
	Pattern *model.FailurePattern
	// Clock is the run's logical clock.
	Clock TimeSource
	// Runtime is the run's message-passing runtime (a *net.Network when the
	// scenario harness builds the suite), for detector classes implemented
	// over communication rather than over the oracle pattern; nil when only
	// oracle classes are in play. Builders that need it must type-assert and
	// error helpfully when it is absent.
	Runtime any
	// SuspectHist, if non-nil, receives every suspect-list sample the built
	// suite serves (recorded through fd.Bind's history hook): give it a
	// model.History ring cap and sweeps can measure detector activity
	// without unbounded memory. Classes without a suspect view ignore it.
	SuspectHist *model.History
}

// Builder constructs a detector suite of one class over a build environment.
type Builder func(env Env, spec DetectorSpec) (*Suite, error)

// Registered class names of the built-in families.
const (
	// ClassOmegaSigma is the paper's oracle family: Ω, Σ, FS and Ψ over the
	// live pattern (the former NewOracles). The default class.
	ClassOmegaSigma = "omega-sigma"
	// ClassPerfect is Chandra–Toueg's perfect detector P, with Ω, Σ, FS and
	// Ψ all derived from its (always accurate) suspect list.
	ClassPerfect = "perfect"
	// ClassEventuallyPerfect is ◇P: suspect list with a false-suspicion
	// prefix, derived Ω, majority-fallback Σ, no FS or Ψ.
	ClassEventuallyPerfect = "eventually-perfect"
	// ClassEventuallyStrong is ◇S: like ◇P but permanently defaming all
	// correct processes except the eventual leader.
	ClassEventuallyStrong = "eventually-strong"
)

// classEntry is one registered class: its builder plus the grammar keys its
// builder consumes.
type classEntry struct {
	build  Builder
	params []string
}

// Registry maps detector class names to suite builders. The zero value is
// empty; NewRegistry returns one with the built-in classes registered.
// Registries are safe for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	classes map[string]classEntry
}

// NewRegistry returns a registry with the built-in classes (omega-sigma,
// perfect, eventually-perfect, eventually-strong) registered.
func NewRegistry() *Registry {
	r := &Registry{}
	r.Register(ClassOmegaSigma, buildOmegaSigma, "suspect", "detect", "switch")
	r.Register(ClassPerfect, buildSuspectClass(ShapePerfect), "suspect")
	r.Register(ClassEventuallyPerfect, buildSuspectClass(ShapeEventuallyPerfect), "suspect", "stabilize")
	r.Register(ClassEventuallyStrong, buildSuspectClass(ShapeEventuallyStrong), "suspect", "stabilize")
	return r
}

// Register adds (or replaces) a class builder. The optional params name the
// spec-grammar keys the class's builder consumes (see SpecParamKeys); they
// are what Params reports to mutation and frontier searches, so a class
// registered without them is treated as consuming no quality parameter.
func (r *Registry) Register(class string, b Builder, params ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.classes == nil {
		r.classes = make(map[string]classEntry)
	}
	r.classes[class] = classEntry{build: b, params: params}
}

// Params returns the spec-grammar keys the class's builder consumes (the
// empty class is the default), in the order they were registered; nil for
// an unknown class.
func (r *Registry) Params(class string) []string {
	class = DetectorSpec{Class: class}.className()
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.classes[class].params...)
}

// Classes returns the registered class names, sorted.
func (r *Registry) Classes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.classes))
	for c := range r.classes {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Resolve applies the default to a class name (the empty class is
// omega-sigma) and reports whether it is registered.
func (r *Registry) Resolve(class string) (string, bool) {
	class = DetectorSpec{Class: class}.className()
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.classes[class]
	return class, ok
}

// Build constructs the suite the spec describes over the given environment.
// Unknown classes error with the registered alternatives.
func (r *Registry) Build(env Env, spec DetectorSpec) (*Suite, error) {
	class, ok := r.Resolve(spec.Class)
	if !ok {
		return nil, fmt.Errorf("fd: unknown detector class %q (registered: %s)", spec.Class, strings.Join(r.Classes(), ", "))
	}
	r.mu.RLock()
	b := r.classes[class].build
	r.mu.RUnlock()
	suite, err := b(env, spec)
	if err != nil {
		return nil, fmt.Errorf("fd: build %s: %w", spec, err)
	}
	suite.Spec = spec
	return suite, nil
}

// defaultRegistry serves the package-level Build.
var defaultRegistry = NewRegistry()

// DefaultRegistry returns the package-level registry with the built-in
// classes; callers may Register additional classes on it.
func DefaultRegistry() *Registry { return defaultRegistry }

// Build constructs spec's suite using the default registry, over an
// oracle-only environment (no runtime, no history). The scenario harness
// builds through DefaultRegistry().Build with a full Env instead.
func Build(pattern *model.FailurePattern, clock TimeSource, spec DetectorSpec) (*Suite, error) {
	return defaultRegistry.Build(Env{Pattern: pattern, Clock: clock}, spec)
}

// buildOmegaSigma is the paper's oracle family — Ω, Σ, FS and Ψ over the
// live pattern, Ψ's regimes wired to the very same Ω/Σ/FS detectors so the
// whole family shares one consistent view (including the configured delays).
func buildOmegaSigma(env Env, spec DetectorSpec) (*Suite, error) {
	omega := &OracleOmega{Pattern: env.Pattern, Clock: env.Clock, SuspicionDelay: spec.SuspicionDelay}
	sigma := &OracleSigma{Pattern: env.Pattern, Clock: env.Clock, SuspicionDelay: spec.SuspicionDelay}
	fs := &OracleFS{Pattern: env.Pattern, Clock: env.Clock, DetectionDelay: spec.DetectionDelay}
	return &Suite{
		Omega: omega,
		Sigma: sigma,
		FS:    fs,
		Psi: &OraclePsi{
			Pattern:     env.Pattern,
			Clock:       env.Clock,
			SwitchAfter: spec.PsiSwitchAfter,
			Policy:      spec.PsiPolicy,
			Omega:       omega,
			Sigma:       sigma,
			FS:          fs,
		},
	}, nil
}

// buildSuspectClass derives a full-as-honestly-possible suite from the
// suspect oracle of the given shape. P derives everything (its list is
// accurate, so the complement is a true Σ and non-emptiness a true failure
// signal); the ◇ classes derive Ω and a majority-fallback Σ only. With
// env.SuspectHist set, the suspect source is wrapped so every sample the
// derived detectors take is recorded — the derivations query through the
// wrapper, so the recorded history is exactly what the protocol consumed.
func buildSuspectClass(shape SuspectShape) Builder {
	return func(env Env, spec DetectorSpec) (*Suite, error) {
		n := env.Pattern.N()
		var sus SuspectSource = &OracleSuspects{
			Pattern:        env.Pattern,
			Clock:          env.Clock,
			Shape:          shape,
			SuspicionDelay: spec.SuspicionDelay,
			StabilizeAfter: spec.StabilizeAfter,
		}
		if env.SuspectHist != nil {
			sus = Recorded(sus, env.Clock, n, env.SuspectHist)
		}
		suite := &Suite{
			Suspects: sus,
			Omega:    SuspectOmega{Suspects: sus, N: n},
			Sigma:    SuspectSigma{Suspects: sus, N: n, Accurate: shape == ShapePerfect},
		}
		if shape == ShapePerfect {
			fs := SuspectFS{Suspects: sus}
			suite.FS = fs
			suite.Psi = &OraclePsi{
				Pattern:     env.Pattern,
				Clock:       env.Clock,
				SwitchAfter: spec.PsiSwitchAfter,
				Policy:      spec.PsiPolicy,
				Omega:       suite.Omega,
				Sigma:       suite.Sigma,
				FS:          fs,
			}
		}
		return suite, nil
	}
}
