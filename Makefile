GO ?= go

.PHONY: check build vet test bench bindsmoke golden fuzz chaos fleet profsmoke migsmoke tiersmoke critsmoke

## check: the tier-1 verification — build, vet, race-enabled tests, a
## short fuzz smoke over the hardened wire decoder, the fleet scheduler
## smoke, the profiler/breakdown CLI smoke, the shared-image bind smoke,
## the mid-offload migration smoke, the multi-tier placement smoke, and
## the span-tracing smoke.
check: build vet fleet profsmoke bindsmoke migsmoke tiersmoke critsmoke
	$(GO) test -race ./...
	$(GO) test ./internal/offrt/ -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 5s

## bindsmoke: the O(1)-bind contract — a fresh copy-on-write instance of a
## cached Program must hold zero private resident bytes (binding may not
## allocate a full image copy) and start bit-identical to a private machine.
bindsmoke:
	$(GO) test ./internal/interp/ -run '^TestBindSmoke$$' -count=1

## migsmoke: the mid-offload migration contract — a drain halfway through
## an offloaded task checkpoints, ships and resumes on a spare with output
## and memory digest bit-identical to the fault-free run, and the shipped
## checkpoint scales with dirty pages (a fresh instance ships zero).
migsmoke:
	$(GO) test ./internal/offrt/ -run '^TestMigrationSmoke$$' -count=1

## tiersmoke: the multi-tier placement contract — a hot 3-way cell must
## beat both static baselines on geomean and actually promote or demote
## across the backhaul.
tiersmoke:
	$(GO) test ./internal/fleet/ -run '^TestTierSmoke$$' -count=1

## critsmoke: the span-tracing contract — a tiered cell with the tail
## sampler on must retain exactly the slowest-K jobs with complete span
## trees inside the ring bound, and each exemplar's critical-path
## segments must sum bit-exactly to its end-to-end latency.
critsmoke:
	$(GO) test ./internal/fleet/ -run '^TestCritSmoke$$' -count=1

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

## bench: the interpreter/memory micro-benchmarks (fast vs reference
## engine, with steps/sec and allocations) plus the observability hot-path
## allocation benchmarks. Writes the machine-readable records to
## BENCH_interp.json (fails if the fast engine regresses below the 5x
## steps/sec floor or allocates in steady state) and BENCH_bind.json
## (fails if a cached bind is under 50x faster than the first compile or
## a session's copy-on-write resident bytes are under 10x below a private
## image copy). Also writes BENCH_fleet.json and BENCH_migrate.json; the
## migration bench fails unless migration-enabled recovery beats
## fallback-only on both aggregate p99 and geomean. The fleetscale bench
## drives a million clients through the fleet's event loop and writes
## BENCH_fleet_scale.json; it fails if adaptive admission stops beating
## static bounds on the diurnal cell, or if the 100k-client exemplar
## cell stops retaining the 64 slowest jobs as complete span trees with
## exact segment sums inside the trace-ring bound. The tiers bench
## sweeps the mobile -> edge -> cloud hierarchy through all three
## placement modes and writes BENCH_tiers.json; it fails unless 3-way
## placement holds both aggregate tails at or under each static
## baseline with live cross-tier migration.
bench:
	$(GO) test -run '^$$' -bench 'InterpLoop|LoadStore|CallReturn|Digest|Bind' -benchmem ./internal/interp/
	$(GO) test -run '^$$' -bench 'PageFaultTrace' -benchmem ./internal/obs/
	BENCH_JSON=$(CURDIR)/BENCH_interp.json $(GO) test ./internal/interp/ -run '^TestBenchJSON$$' -count=1 -v
	BENCH_BIND_JSON=$(CURDIR)/BENCH_bind.json $(GO) test ./internal/interp/ -run '^TestBindBenchJSON$$' -count=1 -v
	$(GO) run ./cmd/offloadbench -exp fleet -fleet-out=$(CURDIR)/BENCH_fleet.json
	$(GO) run ./cmd/offloadbench -exp migrate -migrate-out=$(CURDIR)/BENCH_migrate.json
	$(GO) run ./cmd/offloadbench -exp fleetscale -clients 1000000 -exemplars 64 -scale-out=$(CURDIR)/BENCH_fleet_scale.json
	$(GO) run ./cmd/offloadbench -exp tiers -tiers-out=$(CURDIR)/BENCH_tiers.json

## golden: regenerate every golden file (Chrome export, metrics summary,
## breakdown tables, fleet Result digests) through the shared goldentest
## -update flag.
golden:
	$(GO) test ./internal/obs/ ./internal/obs/analyze/ ./internal/fleet/ -run Golden -update

## profsmoke: end-to-end smoke of the trace-analysis pipeline — a chess
## run with the guest profiler and the breakdown report enabled, checking
## the folded profile is non-empty.
profsmoke:
	$(GO) run ./cmd/offloadrun -w chess -depth 8 -turns 1 \
		-profile $(CURDIR)/.profsmoke.folded -breakdown > /dev/null
	test -s $(CURDIR)/.profsmoke.folded
	rm -f $(CURDIR)/.profsmoke.folded

## fuzz: a longer fuzzing session over the wire decoder and the link and
## server fault-spec parsers.
fuzz:
	$(GO) test ./internal/offrt/ -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 60s
	$(GO) test ./internal/faults/ -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 30s
	$(GO) test ./internal/faults/ -run '^$$' -fuzz '^FuzzParseServer$$' -fuzztime 30s

## fleet: the server-fleet scheduler smoke — determinism, the est-aware
## vs random property, and admission sheds under overload, under -race.
fleet:
	$(GO) test -race ./internal/fleet/ ./internal/experiments/ -run 'Fleet|Pool|Sheds|Admission'

## chaos: the fault-injection campaign — every workload under the
## drop-rate x outage grid, asserting bit-identical output vs fault-free.
chaos:
	$(GO) test ./internal/experiments/ -run '^TestChaos' -v
