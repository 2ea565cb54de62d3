package main

import (
	"io"
	"math"
	"testing"
)

// TestSmoke runs every workload at smoke size, untraced and traced, with
// every correctness check, and requires every declared metric.
func TestSmoke(t *testing.T) {
	for _, w := range workloads(true) {
		for _, traced := range []bool{false, true} {
			rep := runWorkload(w, config{seed: 1, traced: traced, smoke: true}, io.Discard)
			if !rep.tally.correct() {
				t.Errorf("%s traced=%v: %d/%d points failed: %v", w.name, traced,
					rep.tally.failed, rep.tally.attempted, rep.tally.problems)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			if miss := rep.missing(specs); len(miss) > 0 {
				t.Errorf("%s traced=%v: missing metrics %v", w.name, traced, miss)
			}
			for _, m := range rep.metrics {
				for _, v := range m.values {
					if math.IsNaN(v) || math.IsInf(v, 0) || (!traced && v <= 0) {
						t.Errorf("%s: %s = %v", w.name, m.spec.Name, v)
					}
				}
			}
		}
	}
}
