package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// result is one run of one workload: the contract's last-line object
// plus the human-readable lines printed above it.
type result struct {
	Workload  string
	Correct   bool
	Attempted int
	Failed    int
	// layer says which metric list this run reports: the traced run
	// reports every per-layer metric, the untraced run every end-to-end
	// metric.
	layer   bool
	values  map[string]float64
	details []string
	notes   []string
}

func newResult(workload string) result {
	return result{Workload: workload, values: map[string]float64{}}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) detail(format string, a ...any) {
	r.details = append(r.details, fmt.Sprintf(format, a...))
}

// failAll is the result of a run that could not finish: every cell it
// was to request counts as failed, so a broken run cannot pass for a
// fast one.
func (r result) failAll(err error) result {
	if r.Attempted < 1 {
		r.Attempted = 1
	}
	r.Failed, r.Correct = r.Attempted, false
	r.notes = append(r.notes, err.Error())
	return r
}

func (r result) defs() []metricDef {
	if r.layer {
		return perLayer
	}
	return endToEnd
}

// metricValue is one entry of the last line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// lastLine is the object the contract wants as the last line of
// standard output, with exactly these keys.
type lastLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes every metric by name with its unit, the details and any
// failed checks, then the contract's JSON object as the last line.
func (r result) print(w io.Writer) {
	line := lastLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	if line.Attempted < 1 {
		line.Attempted = 1
	}
	for _, m := range r.defs() {
		v, ok := r.values[m.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-14s %-40s %14.4f %s\n", r.Workload, m.Name, v, m.Unit)
		line.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	fmt.Fprintf(w, "%-14s cells attempted %d, failed %d, correct %t\n", r.Workload, line.Attempted, line.Failed, line.Correct)
	for _, d := range r.details {
		fmt.Fprintf(w, "%-14s   %s\n", r.Workload, d)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "%-14s   FAILED CHECK: %s\n", r.Workload, n)
	}
	out, err := json.Marshal(line)
	if err != nil { // a NaN or infinite value: report the run as broken
		out, _ = json.Marshal(lastLine{Attempted: line.Attempted, Failed: line.Attempted, Metrics: map[string]metricValue{}})
		fmt.Fprintf(w, "%-14s   FAILED CHECK: %v\n", r.Workload, err)
	}
	fmt.Fprintf(w, "%s\n", out)
}

func fmtList(values []float64) string {
	parts := make([]string, len(values))
	for i, v := range values {
		parts[i] = fmt.Sprintf("%.3f", v)
	}
	return strings.Join(parts, " ")
}
