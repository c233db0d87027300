# CI and local development invoke the same targets; keep ci.yml and
# this file in sync.

GO ?= go

.PHONY: all build test race flake-hunt bench bench-compare perfbench-smoke fuzz-script fuzz-html lint fmt-check vet serve serve-smoke serve-http reload-smoke soak slo-smoke profile clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Flake hunt: the tests that once failed intermittently, repeated under
# the race detector. A drain that hangs on a late h2 connection, a
# request refused mid-drain, or a store reader seeing the generation go
# backwards fails one of the 20 runs.
flake-hunt:
	$(GO) test -race -count=20 \
		-run '^(TestGracefulShutdownTLSInFlight|TestGracefulShutdownLateH2Conn|TestStoreConcurrentSwapsAndReads)$$' \
		./internal/httpd ./internal/ctlplane

# One iteration per benchmark: a smoke pass that catches compile and
# runtime breakage in benchmark code without CI-length runs.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# The benchmark's correctness gates, on one second of each perfbench
# workload with the traced per-layer pass. perfbench exits 1 if a
# traced session's decisions differ from the untraced one's, a §6.4
# attack lands, decisions per page change, a forum reply is lost or a
# mashup verdict flips. Build output stays under .bench_build/.
perfbench-smoke:
	bash perfbench/run.sh --workload all --seed 1 --seconds 1 --trace 1

# Script fuzz, seeded with the §6.4 attack scripts and the persisted
# corpus under internal/script/testdata/fuzz: the parser never panics,
# and on whatever parses the interpreter finishes or stops at its step
# budget without panicking. For a longer hunt, run the same go test
# line with a larger -fuzztime.
fuzz-script:
	$(GO) test ./internal/script -run '^FuzzParse$$' -fuzz '^FuzzParse$$' -fuzztime 10s

# HTML parser fuzz under ESCUDO labelling: the parser never panics,
# every ring stays in range, no configuration attribute reaches the
# tree, every kid links back to its parent, and appending to one
# element's Attrs or Kids (as the DOM API does) never changes another
# element's. For a longer hunt, run the same go test line with a larger
# -fuzztime.
fuzz-html:
	$(GO) test ./internal/html -run '^FuzzParseEscudo$$' -fuzz '^FuzzParseEscudo$$' -fuzztime 10s

lint: fmt-check vet

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Regenerate BENCH_engine.json with the default load (8 sessions).
serve:
	$(GO) run ./cmd/escudo-serve

# The driver exits 1 on its own when an invariant it measured breaks
# (task errors, an attack landing under ESCUDO, a socket verdict that
# differs from the in-memory one, mixed policy generations, a leak or
# a missed p99 budget, ...). The jq lines in the targets below assert
# what depends on run length or host speed, so they live next to the
# flags that set the run length.

# Driver smoke at CI scale: the in-memory phases, then the same load
# at GOMAXPROCS=4 diffed against it by escudo-compare.
serve-smoke:
	$(GO) run ./cmd/escudo-serve -sessions 8 -iters 2 -phpbb-iters 5 -mixed-iters 4 -out BENCH_engine.smoke.json
	$(GO) run ./cmd/escudo-serve -sessions 8 -iters 2 -phpbb-iters 5 -mixed-iters 4 -procs 4 -out BENCH_engine.procs4.json
	jq -e '.procs_requested == 4 and ([.phases[] | select(.name == "figure4" and .tasks > 0)] | length == 1)' BENCH_engine.procs4.json
	$(GO) run ./cmd/escudo-compare BENCH_engine.smoke.json BENCH_engine.procs4.json

# Client/server split at CI scale: origins mounted on a real HTTP
# gateway over loopback (TLS + ALPN, so the wire speaks h2), workloads
# and the §6.4 attack corpus replayed over sockets. The h2 transport
# must reuse its connections (one multiplexed conn per origin host
# serves the whole short run, so the gate is 0.90), and the figure4
# allocs-per-request figure (process-wide Mallocs per gateway-served
# request, ~320) must stay under the allocation diet's ceiling, about
# 1.5 times that.
serve-http:
	$(GO) run ./cmd/escudo-serve -sessions 8 -iters 2 -phpbb-iters 5 -mixed-iters 4 -http 127.0.0.1:0 -tls -out BENCH_engine.http.json
	jq -e '.http.phases | map(select(.name == "http-figure4" or .name == "http-mixed")) | (length == 2) and all(.requests > 0)' BENCH_engine.http.json
	jq -e '.http.client.reuse_rate >= 0.90' BENCH_engine.http.json
	jq -e '.http.allocs_per_request > 0 and .http.allocs_per_request < 480' BENCH_engine.http.json
	jq -e '(.policy.origins | length) == 4 and .policy.delegations >= 1 and ([.phases[] | select(.name == "attacks")] | length == 1)' BENCH_engine.http.json
	jq -e '.policy.phases | map(select(.name == "delegated-session")) | (length == 1) and all(.tasks > 0 and .decisions > 0)' BENCH_engine.http.json

# Policy hot-reload smoke: mount the substrate's origins on a dedicated
# gateway, push a live policy flip mid-load (the invalidation storm),
# and measure push ack, watcher propagation, cache refill, and the
# throughput dip. The driver holds generation isolation, the /policyz
# document count and 18/18 on both sides of the flip; the gates here
# want pages on both sides of the flip and the push, propagation and
# refill recorded.
reload-smoke:
	$(GO) run ./cmd/escudo-serve -sessions 4 -iters 2 -phpbb-iters 2 -mixed-iters 2 \
		-control -out BENCH_engine.control.json
	jq -e '.control.pages_audited > 0 and .control.generations_seen == 2' BENCH_engine.control.json
	jq -e '.control.storm.push_ack_ms > 0 and .control.storm.propagation_ms > 0' BENCH_engine.control.json
	jq -e '.control.storm.cache_entries_before > 0 and .control.storm.cache_refill_ms > 0' BENCH_engine.control.json
	jq -e '.control.storm | has("attacks_pre_flip") and has("attacks_post_flip")' BENCH_engine.control.json

# Leak-hunting soak: 30 seconds of mixed load through the loopback
# gateway under the race detector, with the runtime sampler recording
# goroutine/heap shape every 200ms into the report's obs section. The
# final goroutine count must land within 8 of the post-warmup count
# (sessions peak above 60 goroutines mid-run, so this asserts that
# every pool and connection drained) and the heap must not grow
# monotonically across samples.
soak:
	$(GO) run -race ./cmd/escudo-serve -sessions 4 -iters 1 -phpbb-iters 2 -mixed-iters 2 \
		-attacks=false -http 127.0.0.1:0 -soak 30s -out BENCH_engine.soak.json
	jq -e '.obs.sampler.samples > 0 and .obs.sampler.post_warmup_goroutines > 0' BENCH_engine.soak.json
	jq -e '(.obs.sampler.goroutines.last - .obs.sampler.post_warmup_goroutines) | (if . < 0 then -. else . end) <= 8' BENCH_engine.soak.json
	jq -e '.obs.sampler.heap_monotonic == false' BENCH_engine.soak.json
	jq -e '.obs.decision_events_recorded > 0 and .obs.version.go != ""' BENCH_engine.soak.json

# Open-loop SLO smoke: 30 seconds of seeded Poisson arrivals (200/s)
# with login/logout churn against the loopback gateway, no coordinated
# omission. Deliberately NOT under -race — the race detector inflates
# latency ~10x, which would make the p99 budget and the leak window
# meaningless. The driver holds the clean leak verdict, the declared
# p99 budget and the churn balance; the gates here want the offered
# rate within 10% of the target (a starved runner shows up here), a
# leak window of >=8 points, per-stage attribution, and traced
# exemplars.
slo-smoke:
	$(GO) run ./cmd/escudo-serve -sessions 4 -iters 1 -phpbb-iters 1 -mixed-iters 1 \
		-attacks=false -http 127.0.0.1:0 \
		-openloop rate=200,duration=30s,churn=20,p99=250 \
		-out BENCH_engine.slo.json
	jq -e '.slo.target_rate == 200 and .slo.offered_rate >= 0.9 * 200 and .slo.arrivals > 0' BENCH_engine.slo.json
	jq -e '.slo.completed > 0 and .slo.logins > 0 and .slo.leak.points >= 8 and .slo.p99_budget_ms == 250' BENCH_engine.slo.json
	jq -e '.slo.stages | has("batch_auth") and has("handler")' BENCH_engine.slo.json
	jq -e '.slo.exemplars | length > 0 and all(.trace_id != "")' BENCH_engine.slo.json

# Run the driver fresh and print phase-by-phase p50/p99 deltas against
# the committed BENCH_engine.json. Override NEW_BENCH/OLD_BENCH to
# compare arbitrary reports.
OLD_BENCH ?= BENCH_engine.json
NEW_BENCH ?= BENCH_engine.new.json
bench-compare:
	$(GO) run ./cmd/escudo-serve -procs 4 -out $(NEW_BENCH)
	$(GO) run ./cmd/escudo-compare $(OLD_BENCH) $(NEW_BENCH)

# Profile the full run: CPU and heap profiles of the serve-http
# workload land in profiles/ for `go tool pprof`. The gateway also
# exposes live /debug/pprof on its admin host via -pprof.
profile:
	mkdir -p profiles
	$(GO) run ./cmd/escudo-serve -http 127.0.0.1:0 -tls -pprof \
		-cpuprofile profiles/cpu.pprof -memprofile profiles/heap.pprof \
		-out profiles/BENCH_profile.json
	@echo "profiles written: profiles/cpu.pprof profiles/heap.pprof"
	@echo "inspect with: $(GO) tool pprof profiles/cpu.pprof"

clean:
	$(GO) clean ./...
	rm -f BENCH_engine.new.json BENCH_engine.smoke.json BENCH_engine.procs4.json BENCH_engine.http.json \
		BENCH_engine.soak.json BENCH_engine.slo.json
	rm -rf profiles .bench_build
