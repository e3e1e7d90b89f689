package study

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/vectors"
)

// TestRunContextTrace verifies that a traced run records the pipeline
// stages under the study.run span and that tracing does not perturb the
// dataset relative to an untraced run.
func TestRunContextTrace(t *testing.T) {
	cfg := Config{Seed: 7, Users: 12, Iterations: 3}
	root := obs.NewTrace("test")
	ctx := obs.ContextWithSpan(context.Background(), root)
	ds, err := RunContext(ctx, cfg)
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	root.End()

	run := root.Find("study.run")
	if run == nil {
		t.Fatal("trace missing study.run span")
	}
	for _, stage := range []string{"population", "render", "intern-index"} {
		if run.Find(stage) == nil {
			t.Errorf("study.run missing %q child span", stage)
		}
	}
	// A private cache starts empty: every rendered key came from one of the
	// run's passes, and a pass fills at least one key.
	attrs := run.Find("render").Export().Attrs
	passes, _ := attrs["render_passes"].(int)
	misses, _ := attrs["cache_misses"].(int)
	if passes <= 0 || passes > misses {
		t.Errorf("render span: render_passes = %v, cache_misses = %v", attrs["render_passes"], attrs["cache_misses"])
	}

	plain, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for v, rows := range ds.Obs {
		for ui := range rows {
			for it := range rows[ui] {
				if rows[ui][it] != plain.Obs[v][ui][it] {
					t.Fatalf("traced run diverged at %v user %d iter %d", v, ui, it)
				}
			}
		}
	}
}

// TestRunProgressCallback verifies the Progress callback fires once per
// participant and reaches done == total.
func TestRunProgressCallback(t *testing.T) {
	var (
		mu    sync.Mutex
		calls int
		max   int
		total int
	)
	_, err := Run(Config{
		Seed: 3, Users: 9, Iterations: 2, Parallelism: 4,
		Progress: func(done, tot int) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if done > max {
				max = done
			}
			total = tot
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if calls != 9 {
		t.Errorf("Progress called %d times, want 9", calls)
	}
	if max != 9 || total != 9 {
		t.Errorf("Progress peaked at done=%d total=%d, want 9/9", max, total)
	}
}

// TestSetTracerRoutesCollation verifies analysis-stage spans attach under
// the tracer installed with SetTracer.
func TestSetTracerRoutesCollation(t *testing.T) {
	ds, err := Run(Config{Seed: 11, Users: 8, Iterations: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	sp := obs.NewTrace("exp")
	ds.SetTracer(sp)
	ds.Labels(vectors.All[0])
	sp.End()
	var names []string
	found := false
	for _, c := range sp.Children() {
		names = append(names, c.Name())
		if strings.HasPrefix(c.Name(), "collate/") {
			found = true
		}
	}
	if !found {
		t.Errorf("no collate/* span recorded under tracer; children: %v", names)
	}
}
