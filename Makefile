# Common development loops for epnet. Pure Go, stdlib only.

GO ?= go

.PHONY: all build test race vet loc golden-harness paper-scale fuzz-smoke bench bench-json bench-compare fmt fmt-check experiments smoke-faults smoke-scenarios smoke-flows smoke-scale observe-demo profile-demo

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full suite under the race detector; the parallel experiment runner
# and the concurrent-engines tests are the interesting targets.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Non-test Go lines (wc -l): the root package, then the module outside
# bench/, which is a module of its own. These are the counts ROADMAP.md
# and CHANGES.md quote.
loc:
	@echo "root   $$(cat $$(ls *.go | grep -v '_test\.go$$') | wc -l)"
	@echo "module $$(find . -path ./bench -prune -o -path ./.bench_build -prune -o \
		-name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l)"

# The default experiment harness must reproduce its reference capture
# byte for byte: stdout only, since the timing lines go to stderr.
# About 8 s on 2 CPUs.
golden-harness:
	@out=$$(mktemp) && trap 'rm -f "$$out"' EXIT && \
		$(GO) run ./cmd/experiments > "$$out" && \
		cmp "$$out" results/experiments_default.txt

# Regenerates the paper-scale tables EXPERIMENTS.md quotes: fig7, fig8
# and fig9a on the paper's 15-ary 3-flat (3,375 hosts), stdout only.
# About 2.5 min on 2 CPUs. CI follows it with
# git diff --exit-code results/experiments_paper_scale.txt.
paper-scale:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
		$(GO) build -o "$$dir/experiments" ./cmd/experiments && \
		for f in fig7 fig8 fig9a; do \
			"$$dir/experiments" -full -only $$f >> "$$dir/out.txt" || exit 1; \
		done && \
		cp "$$dir/out.txt" results/experiments_paper_scale.txt

# A few seconds of coverage-guided fuzzing per parser and per identity
# contract: the fault-schedule parser, Config's JSON codec, the scenario
# DSL, the binary trace reader, the lazy traffic RNG against math/rand,
# the metric-value formatter against strconv, the event engine's
# (at, key) order against a sorted-slice oracle, and the fabric's queue
# ring against a plain slice. The engine's and the ring's inputs are
# operation scripts of a few KB, whose minimization would otherwise take
# the default minute, so they get one second. Crashers land in
# testdata/fuzz.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseSchedule$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzConfigJSON$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzParseScenario$$' -fuzztime $(FUZZTIME) ./internal/scenario/
	$(GO) test -run '^$$' -fuzz '^FuzzReadTrace$$' -fuzztime $(FUZZTIME) ./internal/traffic/
	$(GO) test -run '^$$' -fuzz '^FuzzStreamMatchesStdlib$$' -fuzztime $(FUZZTIME) ./internal/traffic/
	$(GO) test -run '^$$' -fuzz '^FuzzAppendValue$$' -fuzztime $(FUZZTIME) ./internal/telemetry/
	$(GO) test -run '^$$' -fuzz '^FuzzEngineOrder$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzFIFO$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/fabric/

# Hot-path microbenchmarks: event engine scheduling and fabric
# packet throughput (ns/op, allocs/op), plus the figure regenerators.
# -run '^$' keeps the unit tests and fuzz seeds out of the benchmark
# process, here and in bench-json and bench-compare.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/sim/ ./internal/fabric/

# Machine-readable benchmark results (JSON Lines on stdout), for
# regression tracking: make bench-json > bench.jsonl
bench-json:
	@$(GO) test -run '^$$' -bench . -benchmem ./internal/sim/ ./internal/fabric/ ./internal/telemetry/ | $(GO) run ./cmd/benchjson

# Diff current benchmark times against the checked-in baseline
# (BENCH_seed.json, regenerate with: make bench-json > BENCH_seed.json).
# Regressions beyond 10% ns/op are flagged in the report, and sharded
# benchmarks get a scaling section (speedup@N / N, flagged LOW only
# when the machine had N cores to offer). The target itself never
# fails, since cross-machine benchmark noise makes a hard gate
# counterproductive — read the report.
bench-compare:
	@$(GO) test -run '^$$' -bench . -benchmem ./internal/sim/ ./internal/fabric/ ./internal/telemetry/ | $(GO) run ./cmd/benchjson -compare BENCH_seed.json

fmt:
	gofmt -l -w .

# Fails if any file needs reformatting; used by CI.
fmt-check:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; fi

experiments:
	$(GO) run ./cmd/experiments

# Short resilience run under random faults; exercises the fault
# injector end to end without the full experiment suite.
smoke-faults:
	$(GO) run ./cmd/experiments -only faultgrid -duration 1ms -warmup 200us -fault-mttr 100us

# Scenario engine end to end: lint every embedded scenario
# (scenariolint), run one multi-phase scenario serially and one chaos
# campaign sharded, then the scenario DSL tests under the race detector.
smoke-scenarios:
	@for s in $$($(GO) run ./cmd/epsim -list-scenarios); do \
		$(GO) run ./cmd/epsim -scenario $$s -check || exit 1; done
	$(GO) run ./cmd/epsim -scenario diurnal -warmup 100us
	$(GO) run ./cmd/epsim -scenario chaos -warmup 100us -shards 4
	$(GO) test -race ./internal/scenario/
	$(GO) test -run 'TestScenario|TestSinglePhaseScenarioMatchesFlagRun|TestPhaseInsertionStability|TestPresetLoadsAsScenario' .

# Flow tracing end to end: the chaos scenario traced serially and
# sharded, with the two -flows-out reports and the two -trace-out
# Chrome traces compared byte for byte (the tracer rides the
# determinism contract), then the flow-trace and flight-recorder tests
# under the race detector. Files land in /tmp/epnet-flows.
smoke-flows:
	mkdir -p /tmp/epnet-flows
	$(GO) run ./cmd/epsim -scenario chaos -warmup 100us -shards 1 -flow-sample 1 \
		-flows-out /tmp/epnet-flows/serial.json -trace-out /tmp/epnet-flows/serial.trace.json
	$(GO) run ./cmd/epsim -scenario chaos -warmup 100us -shards 4 -flow-sample 1 \
		-flows-out /tmp/epnet-flows/sharded.json -trace-out /tmp/epnet-flows/sharded.trace.json
	cmp /tmp/epnet-flows/serial.json /tmp/epnet-flows/sharded.json
	cmp /tmp/epnet-flows/serial.trace.json /tmp/epnet-flows/sharded.trace.json
	$(GO) test -race -run 'Flow|PacketTrace|FaultDump|WriteChrome' ./internal/telemetry/ .
	@ls -l /tmp/epnet-flows

# Scale smoke: build an 8-ary 5-flat flattened butterfly (32,768 hosts,
# 4096 switches, ~180k channels) and push a short steady uniform load
# through it, all inside a hard wall-clock bound. Guards the flyweight
# construction path: if per-entity allocation or an O(switches²) table
# creeps back in, the build alone blows the budget. ~3s on a dev box;
# the bound leaves headroom for slow CI runners.
smoke-scale:
	timeout 60 $(GO) run ./cmd/epsim -topology fbfly -k 8 -n 5 -c 8 \
		-workload uniform -load 0.05 -warmup 20us -duration 100us -shards 0

# Short run with the full observability stack on: labeled metrics CSV,
# utilization heatmap + histogram, per-link attribution, and one live
# scrape of the inspection endpoint. Then a heatmap-only run (no metrics
# file, no inspector: a sampler without a sink paces the heatmap), whose
# heatmap and histogram must be non-empty and match the first run's.
# Then the grid commands:
# fig7's two runs (metrics, flow report and Chrome trace) and a
# two-value sweep must each write their numbered .000 and .001 files,
# non-empty. Files land in /tmp/epnet-observe.
OBS := /tmp/epnet-observe
observe-demo:
	mkdir -p $(OBS)
	$(GO) run ./cmd/epsim -workload search -duration 1ms -warmup 200us \
		-metrics-out $(OBS)/metrics.csv \
		-heatmap-out $(OBS)/heatmap.csv \
		-hist-out $(OBS)/hist.csv \
		-attribution -listen 127.0.0.1:0
	$(GO) run ./cmd/epsim -workload search -duration 1ms -warmup 200us \
		-heatmap-out $(OBS)/heatmap-only.csv -hist-out $(OBS)/hist-only.csv
	$(GO) run ./cmd/experiments -only fig7 -duration 200us -warmup 50us \
		-metrics-out $(OBS)/fig7-metrics.csv -flows-out $(OBS)/fig7-flows.json \
		-trace-out $(OBS)/fig7-trace.json
	$(GO) run ./cmd/sweep -x target -values 0.25,0.5 -duration 200us -warmup 50us \
		-metrics-out $(OBS)/sweep-metrics.csv -flows-out $(OBS)/sweep-flows.json
	for f in heatmap-only.csv hist-only.csv \
		fig7-metrics.000.csv fig7-metrics.001.csv fig7-flows.000.json fig7-flows.001.json \
		fig7-trace.000.json fig7-trace.001.json \
		sweep-metrics.000.csv sweep-metrics.001.csv sweep-flows.000.json sweep-flows.001.json; do \
		test -s $(OBS)/$$f || { echo "observe-demo: $(OBS)/$$f missing or empty"; exit 1; }; \
	done
	cmp $(OBS)/heatmap.csv $(OBS)/heatmap-only.csv
	cmp $(OBS)/hist.csv $(OBS)/hist-only.csv
	@ls -l $(OBS)

# Engine self-profiling end to end: a sharded run with the partition
# line (-v), the critical-path report (-profile), and the JSON export
# (-profile-out), plus the live /profile endpoint test. Files land in
# /tmp/epnet-profile.
profile-demo:
	mkdir -p /tmp/epnet-profile
	$(GO) run ./cmd/epsim -workload search -duration 1ms -warmup 200us \
		-shards 4 -v -profile \
		-profile-out /tmp/epnet-profile/profile.json
	$(GO) test -run 'TestInspectorProfileEndpoint|TestProfileOutFormats' -v .
	@ls -l /tmp/epnet-profile
