package lint

import "testing"

// BenchmarkLintModule quantifies the shared-module cache: "fresh" pays
// the full from-source type-check of the module plus its stdlib imports
// on every iteration, "shared" hits the per-process cache after the
// first load. The gap is the time every extra consumer (CLI run, test,
// fixture load) saves by going through Module instead of NewLoader.
func BenchmarkLintModule(b *testing.B) {
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l, err := NewLoader(".")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := l.LoadModule(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shared", func(b *testing.B) {
		if _, _, err := Module("."); err != nil {
			b.Fatal(err) // prime the cache outside the timed loop
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := Module("."); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNilness times one full nilness pass — the fixpoint and
// replay under nilcheck and errcontract — over every package in their
// scope (exec, plan, storage, obs). The per-package cache is cleared
// each iteration so every pass is cold.
func BenchmarkNilness(b *testing.B) {
	_, pkgs, err := Module(".")
	if err != nil {
		b.Fatal(err)
	}
	pr := buildProgram(pkgs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pkgs {
			p.nilDiags, p.nilProg = nil, nil
			nilAnalyze(pr, p)
		}
	}
}

// BenchmarkSummaries times the bottom-up SCC fixpoint: call graph,
// purity/escape/taint transfer and error-contract facts for every
// function in the module.
func BenchmarkSummaries(b *testing.B) {
	_, pkgs, err := Module(".")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		buildProgram(pkgs)
	}
}
