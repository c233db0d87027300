package script

import "testing"

// benchCorpus is a synthetic corpus: loop-heavy counters, string
// building through arrays, closure call chains, object property
// traffic, and attempt-wrapped probes. No script the workloads or the
// §6.4 attacks run has a loop or defines a function (the longest is
// the mashup widget's four statements), so this measures the
// interpreter on shapes the browser's pages do not give it.
var benchCorpus = []string{
	`var total = 0;
	 for (var i = 0; i < 100; i++) {
	   if (i % 3 == 0) { total += i; } else { total += 1; }
	 }
	 total;`,

	`var parts = [];
	 for (var i = 0; i < 40; i++) { parts.push("item-" + i); }
	 var s = parts.join(",");
	 s.length;`,

	`function make(n) { return function(x) { return x + n; }; }
	 var add2 = make(2); var sum = 0;
	 for (var i = 0; i < 50; i++) { sum = add2(sum); }
	 sum;`,

	`var o = {hits: 0, misses: 0};
	 for (var i = 0; i < 60; i++) {
	   if (i % 2 == 0) { o.hits += 1; } else { o.misses += 1; }
	 }
	 o.hits * 1000 + o.misses;`,

	`var ok = 0;
	 for (var i = 0; i < 20; i++) {
	   if (attempt(function() { return Math.floor(i) + parseInt("42"); })) { ok += 1; }
	 }
	 ok;`,
}

// BenchmarkScriptEval is the per-execution cost of a pre-parsed script
// (as the parse cache provides), fresh environment each run (as the
// browser provides one per script). One op is one pass over the corpus.
func BenchmarkScriptEval(b *testing.B) {
	progs := make([]*Program, len(benchCorpus))
	for i, src := range benchCorpus {
		p, err := Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		progs[i] = p
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			ip := &Interp{}
			if _, err := ip.Run(p, StdEnv(&Console{})); err != nil {
				b.Fatal(err)
			}
		}
	}
}
