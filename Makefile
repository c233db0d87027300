# CI and local development invoke the same targets; keep ci.yml and
# this file in sync.

GO ?= go

.PHONY: all build test race bench bench-compare perfbench-smoke fuzz-script lint fmt-check vet serve serve-smoke serve-http serve-cluster reload-smoke soak slo-smoke profile clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

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

# Differential fuzz: the compiled VM must agree with the tree-walking
# interpreter (the semantic spec) on every input — result values,
# error classes, and step counts alike. CI runs this as a short smoke;
# raise FUZZTIME locally when touching the compiler or VM.
FUZZTIME ?= 10s
fuzz-script:
	$(GO) test ./internal/script -run '^FuzzCompileMatchesEval$$' \
		-fuzz '^FuzzCompileMatchesEval$$' -fuzztime $(FUZZTIME)

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

# Driver smoke at CI scale: the in-memory phases plus the script
# section (the compiled VM must hold >=3x the interpreter's throughput
# at <=0.25x its allocations; paired-round medians, so runner load does
# not flip the verdict), then the same load at GOMAXPROCS=4 diffed
# against it by escudo-compare.
serve-smoke:
	$(GO) run ./cmd/escudo-serve -sessions 8 -iters 2 -phpbb-iters 5 -mixed-iters 4 -out BENCH_engine.smoke.json
	jq -e '.script.speedup >= 3 and .script.alloc_ratio <= 0.25' BENCH_engine.smoke.json
	jq -e '.script.eval.ops_per_sec > 0 and .script.vm.ops_per_sec > 0 and .script.compile_cache_hits > 0' BENCH_engine.smoke.json
	$(GO) run ./cmd/escudo-serve -sessions 8 -iters 2 -phpbb-iters 5 -mixed-iters 4 -procs 4 -out BENCH_engine.procs4.json
	jq -e '.procs_requested == 4 and ([.phases[] | select(.name == "figure4" and .tasks > 0)] | length == 1)' BENCH_engine.procs4.json
	$(GO) run ./cmd/escudo-compare BENCH_engine.smoke.json BENCH_engine.procs4.json

# Client/server split at CI scale: origins mounted on a real HTTP
# gateway over loopback (TLS + ALPN, so the wire speaks h2), workloads
# and the §6.4 attack corpus replayed over sockets. The h2 transport
# must reuse its connections (one multiplexed conn per origin host
# serves the whole short run, so the gate is 0.90; the longer cluster
# run gates at 0.95), and the figure4 allocs-per-request figure
# (process-wide Mallocs per gateway-served request, ~1500) must stay
# under the allocation diet's ceiling.
serve-http:
	$(GO) run ./cmd/escudo-serve -sessions 8 -iters 2 -phpbb-iters 5 -mixed-iters 4 -http 127.0.0.1:0 -tls -out BENCH_engine.http.json
	jq -e '.http.phases | map(select(.name == "http-figure4" or .name == "http-mixed")) | (length == 2) and all(.requests > 0)' BENCH_engine.http.json
	jq -e '.http.client.reuse_rate >= 0.90' BENCH_engine.http.json
	jq -e '.http.allocs_per_request > 0 and .http.allocs_per_request < 2000' BENCH_engine.http.json
	jq -e '(.policy.origins | length) == 4 and .policy.delegations >= 1 and ([.phases[] | select(.name == "attacks")] | length == 1)' BENCH_engine.http.json
	jq -e '.policy.phases | map(select(.name == "delegated-session")) | (length == 1) and all(.tasks > 0 and .decisions > 0)' BENCH_engine.http.json

# Multi-process deployment: fork/exec one serve-only gateway process
# (TLS-terminating, ephemeral in-memory CA) plus CLUSTER_WORKERS
# loadgen worker processes, replay figure-4, authenticated phpBB
# browsing and the §6.4 corpus over https across the process boundary,
# and merge the shards into the cluster section. -iters 4 gives the h2
# transport enough requests that the >=0.95 reuse gate has margin; the
# attack-env wire (per-attack throwaway gateways) is accounted apart.
CLUSTER_WORKERS ?= 2
serve-cluster:
	$(GO) run ./cmd/escudo-serve -cluster $(CLUSTER_WORKERS) -tls -sessions 2 -iters 4 -phpbb-iters 5 -out BENCH_engine.cluster.json
	jq -e '.cluster.workers == $(CLUSTER_WORKERS) and .cluster.tls == true' BENCH_engine.cluster.json
	jq -e '.cluster.phases | map(select(.name == "figure4" or .name == "phpbb" or .name == "attacks")) | (length == 3) and all(.requests > 0)' BENCH_engine.cluster.json
	jq -e '.cluster.per_worker | (length == $(CLUSTER_WORKERS)) and all(.attacks_neutralized == 18)' BENCH_engine.cluster.json
	jq -e '.cluster.server.origins == 5 and .cluster.server.tls == true' BENCH_engine.cluster.json
	jq -e '.cluster.client.h2_requests > 0 and .cluster.client.reuse_rate >= 0.95' BENCH_engine.cluster.json
	jq -e '.cluster.attack_client.requests > 0' BENCH_engine.cluster.json

# Policy hot-reload smoke: mount TENANTS stamped tenant origins plus a
# hot origin on a dedicated gateway, push a live policy flip mid-load
# (the invalidation storm), and measure push ack, watcher propagation,
# cache refill, and the throughput dip — then the noisy-neighbor
# isolation probe. The driver holds generation isolation, the /policyz
# fleet count and 18/18 on both sides of the flip; the gates here want
# a fleet of >=1000 tenants, pages on both sides of the flip, the
# refill recorded, and the victim's p99 under 100ms on a shared-CPU
# runner while the flood is shed with 503s.
TENANTS ?= 1024
reload-smoke:
	$(GO) run ./cmd/escudo-serve -sessions 4 -iters 2 -phpbb-iters 2 -mixed-iters 2 \
		-script-iters 0 -control -tenants $(TENANTS) -out BENCH_engine.control.json
	jq -e '.control.tenants_mounted >= 1000 and .control.pages_audited > 0 and .control.generations_seen == 2' BENCH_engine.control.json
	jq -e '.control.storm.push_ack_ms > 0 and .control.storm.propagation_ms > 0' BENCH_engine.control.json
	jq -e '.control.storm.cache_entries_before > 0 and .control.storm.cache_refill_ms > 0' BENCH_engine.control.json
	jq -e '.control.storm | has("attacks_pre_flip") and has("attacks_post_flip")' BENCH_engine.control.json
	jq -e '.control.noisy_neighbor.flood_rejected_503 > 0 and .control.noisy_neighbor.victim_p99_noisy_ms < 100' BENCH_engine.control.json

# Leak-hunting soak: SOAK seconds of mixed load through the loopback
# gateway under the race detector, with the runtime sampler recording
# goroutine/heap shape every 200ms into the report's obs section. The
# final goroutine count must land within 8 of the post-warmup count
# (sessions peak above 60 goroutines mid-run, so this asserts that
# every pool and connection drained) and the heap must not grow
# monotonically across samples.
SOAK ?= 30s
soak:
	$(GO) run -race ./cmd/escudo-serve -sessions 4 -iters 1 -phpbb-iters 2 -mixed-iters 2 \
		-attacks=false -http 127.0.0.1:0 -soak $(SOAK) -out BENCH_engine.soak.json
	jq -e '.obs.sampler.samples > 0 and .obs.sampler.post_warmup_goroutines > 0' BENCH_engine.soak.json
	jq -e '(.obs.sampler.goroutines.last - .obs.sampler.post_warmup_goroutines) | (if . < 0 then -. else . end) <= 8' BENCH_engine.soak.json
	jq -e '.obs.sampler.heap_monotonic == false' BENCH_engine.soak.json
	jq -e '.obs.decision_events_recorded > 0 and .obs.version.go != ""' BENCH_engine.soak.json

# Open-loop SLO smoke: SLO_DURATION of seeded Poisson arrivals with
# login/logout churn against the loopback gateway, no coordinated
# omission. Deliberately NOT under -race — the race detector inflates
# latency ~10x, which would make the p99 budget and the leak window
# meaningless. The driver holds the clean leak verdict, the declared
# p99 budget and the churn balance; the gates here want the offered
# rate within 10% of the target (a starved runner shows up here), a
# leak window of >=8 points, per-stage attribution, and traced
# exemplars.
SLO_RATE ?= 200
SLO_DURATION ?= 30s
SLO_CHURN ?= 20
SLO_P99_MS ?= 250
slo-smoke:
	$(GO) run ./cmd/escudo-serve -sessions 4 -iters 1 -phpbb-iters 1 -mixed-iters 1 \
		-script-iters 0 -attacks=false -http 127.0.0.1:0 \
		-openloop rate=$(SLO_RATE),duration=$(SLO_DURATION),churn=$(SLO_CHURN),p99=$(SLO_P99_MS) \
		-out BENCH_engine.slo.json
	jq -e '.slo.target_rate == $(SLO_RATE) and .slo.offered_rate >= 0.9 * $(SLO_RATE) and .slo.arrivals > 0' BENCH_engine.slo.json
	jq -e '.slo.completed > 0 and .slo.logins > 0 and .slo.leak.points >= 8 and .slo.p99_budget_ms == $(SLO_P99_MS)' BENCH_engine.slo.json
	jq -e '.slo.stages | has("batch_auth") and has("handler") and has("queue_wait")' BENCH_engine.slo.json
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
PROFILE_DIR ?= profiles
profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) run ./cmd/escudo-serve -http 127.0.0.1:0 -tls -pprof \
		-cpuprofile $(PROFILE_DIR)/cpu.pprof -memprofile $(PROFILE_DIR)/heap.pprof \
		-out $(PROFILE_DIR)/BENCH_profile.json
	@echo "profiles written: $(PROFILE_DIR)/cpu.pprof $(PROFILE_DIR)/heap.pprof"
	@echo "inspect with: $(GO) tool pprof $(PROFILE_DIR)/cpu.pprof"

clean:
	$(GO) clean ./...
	rm -f BENCH_engine.new.json BENCH_engine.smoke.json BENCH_engine.procs4.json BENCH_engine.http.json \
		BENCH_engine.cluster.json BENCH_engine.soak.json BENCH_engine.slo.json
	rm -rf profiles .bench_build
