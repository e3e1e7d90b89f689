package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is an insertion-ordered set of named metrics.
type metrics struct {
	names []string
	m     map[string]metric
}

func (ms *metrics) set(name string, v float64, unit string) {
	if ms.m == nil {
		ms.m = map[string]metric{}
	}
	if _, dup := ms.m[name]; !dup {
		ms.names = append(ms.names, name)
	}
	ms.m[name] = metric{v, unit}
}

func (ms *metrics) get(name string) (float64, bool) {
	m, ok := ms.m[name]
	return m.Value, ok
}

// report is one workload run's outcome: the end-to-end metrics
// BENCHMARK.json names, the workload's own named metrics (printed, not
// gated), and with tracing the per-layer metrics.
type report struct {
	t      *tally
	e2es   metrics
	infos  metrics
	layers *metrics
}

func newReport(t *tally) *report { return &report{t: t} }

func (r *report) e2e(name string, v float64, unit string)  { r.e2es.set(name, v, unit) }
func (r *report) info(name string, v float64, unit string) { r.infos.set(name, v, unit) }

// result is the last line of the benchmark's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// print writes every metric of the run as "metric <prefix><name> <value>
// <unit>", end-to-end and workload metrics first.
func (r *report) print(w io.Writer, prefix string) {
	ratio := 0.0
	if r.t.attempted > 0 {
		ratio = float64(r.t.failed) / float64(r.t.attempted)
	}
	r.info("error_ratio", ratio, "ratio")
	for _, group := range []*metrics{&r.e2es, &r.infos} {
		group.print(w, prefix)
	}
}

func (ms *metrics) print(w io.Writer, prefix string) {
	for _, n := range ms.names {
		fmt.Fprintf(w, "metric %s%s %v %s\n", prefix, n, ms.m[n].Value, ms.m[n].Unit)
	}
}

// writeResult writes the result line: the run's tally and the metrics ms
// (end-to-end or per-layer).
func writeResult(w io.Writer, t *tally, ms *metrics) error {
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed,
		Metrics: map[string]metric{}}
	for _, n := range ms.names {
		m := ms.m[n]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0
		}
		res.Metrics[n] = m
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
