package shift

import (
	"errors"
	"fmt"
	"strings"
)

// ErrUnknownExperiment is returned (wrapped, with the offending name)
// by RunExperiment for a name not in Experiments(); match it with
// errors.Is — shiftd uses it to answer 404 instead of 500.
var ErrUnknownExperiment = errors.New("unknown experiment")

// This file is the by-name experiment registry shared by cmd/shiftsim
// and cmd/shiftd: both front ends dispatch through RunExperiment, so a
// figure served over HTTP is byte-identical to the same figure printed
// by the CLI.

// experiment is one registry entry: the canonical name, an optional
// alias (the bare figure number), and the driver. Experiments() and
// RunExperiment both derive from the experiments table, so a new entry
// is automatically listable, dispatchable, and part of `-experiment
// all` — the two can never drift.
type experiment struct {
	name, alias string
	run         func(Options) (string, error)
}

// experiments holds every runnable experiment in the order
// `shiftsim -experiment all` runs them.
var experiments = []experiment{
	{"tableI", "", func(Options) (string, error) { return TableI(), nil }},
	{"storage", "", func(Options) (string, error) { return RunStorageReport().String(), nil }},
	{"fig1", "1", func(o Options) (string, error) { return render(RunFigure1(o)) }},
	{"fig2", "2", func(o Options) (string, error) {
		pd, err := RunPerfDensity(o)
		if err != nil {
			return "", err
		}
		return pd.Figure2(), nil
	}},
	{"fig3", "3", func(o Options) (string, error) { return render(RunFigure3(o)) }},
	{"fig6", "6", func(o Options) (string, error) { return render(RunFigure6(o, nil)) }},
	{"fig7", "7", func(o Options) (string, error) { return render(RunFigure7(o)) }},
	{"fig8", "8", func(o Options) (string, error) { return render(RunFigure8(o)) }},
	{"fig9", "9", func(o Options) (string, error) { return render(RunFigure9(o)) }},
	{"fig10", "10", func(o Options) (string, error) { return render(RunFigure10(o)) }},
	{"pd", "", func(o Options) (string, error) { return render(RunPerfDensity(o)) }},
	{"power", "", func(o Options) (string, error) { return render(RunPowerStudy(o)) }},
	{"sensitivity", "", func(o Options) (string, error) { return render(RunSensitivity(o)) }},
	{"generator", "", func(o Options) (string, error) { return render(RunGeneratorStudy(o)) }},
}

// Experiments returns the names of every runnable experiment, in the
// order `shiftsim -experiment all` runs them.
func Experiments() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}

// RunExperiment runs the named experiment driver and returns its
// rendered output. Names are matched case-insensitively and accept the
// bare figure number ("7" ≡ "fig7"). The output is a pure function of
// (name, Options): byte-identical run over run and across engine worker
// bounds.
func RunExperiment(name string, opts Options) (string, error) {
	for _, e := range experiments {
		if strings.EqualFold(name, e.name) || (e.alias != "" && name == e.alias) {
			return e.run(opts)
		}
	}
	return "", fmt.Errorf("%w %q", ErrUnknownExperiment, name)
}

// render stringifies a driver's figure unless the run failed. The error
// must be checked before calling String: on failure drivers return a
// typed nil pointer, which a plain fmt.Stringer nil-check cannot
// detect.
func render[T fmt.Stringer](v T, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return v.String(), nil
}

// ParseDesign resolves a design point by its figure-legend name
// ("SHIFT", "PIF_32K", ...), matched case-insensitively.
func ParseDesign(name string) (Design, error) {
	names := make([]string, len(designs))
	for i, r := range designs {
		if strings.EqualFold(name, r.name) {
			return Design(i), nil
		}
		names[i] = r.name
	}
	return 0, fmt.Errorf("unknown design %q (want one of %s)", name, strings.Join(names, ", "))
}

// ParseCoreType resolves a core microarchitecture by its paper name
// ("Lean-OoO", "Fat-OoO", "Lean-IO"), matched case-insensitively; the
// empty string resolves to the default LeanOoO.
func ParseCoreType(name string) (CoreType, error) {
	switch {
	case name == "" || strings.EqualFold(name, LeanOoO.String()):
		return LeanOoO, nil
	case strings.EqualFold(name, FatOoO.String()):
		return FatOoO, nil
	case strings.EqualFold(name, LeanIO.String()):
		return LeanIO, nil
	}
	return 0, fmt.Errorf("unknown core type %q (want %s, %s, or %s)",
		name, FatOoO, LeanOoO, LeanIO)
}
