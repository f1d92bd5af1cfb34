# BullFrog-Go developer targets.

GO ?= go

.PHONY: all build vet lint lint-locks test race fuzz bench figures examples trace-demo ci clean

all: build vet lint test

# What CI runs (.github/workflows/ci.yml); run before sending a change.
ci: vet build lint
	$(GO) test -race -shuffle=on ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific analyzer suite (internal/lint): interprocedural lock
# discipline (lockflow), atomic fields, context threading, the obs
# metric-registry contract, and error propagation on durability paths.
# `go run ./cmd/bullfrog-lint -v ./...` additionally lists active
# //lint:ignore suppressions.
lint:
	$(GO) run ./cmd/bullfrog-lint ./...

# Emit the global lock-order graph (declared table merged with edges the
# lockflow sweep observed) as Graphviz DOT. Pipe to dot -Tsvg to render:
#   make lint-locks | dot -Tsvg -o lockorder.svg
lint-locks:
	$(GO) run ./cmd/bullfrog-lint -lockgraph ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fuzz smoke: the CI-time budget. Longer local runs: go test -fuzz <name> <pkg>,
# and the nightly workflow (.github/workflows/nightly.yml) runs each for minutes.
fuzz:
	$(GO) test -fuzz FuzzSQLParse -fuzztime 10s ./internal/sql
	$(GO) test -fuzz FuzzStatementTemplate -fuzztime 10s ./internal/sql
	$(GO) test -fuzz FuzzKeyEncodeOrder -fuzztime 10s ./internal/types
	$(GO) test -fuzz FuzzWALReplay -fuzztime 10s ./internal/wal
	$(GO) test -fuzz FuzzSchemaDiff -fuzztime 10s ./internal/schemaver

# Figure experiments as testing.B benchmarks plus micro-benchmarks, then the
# backfill worker-scaling figure, the migration-start-stall before/after,
# the group-commit WAL matrix, and the tracing-overhead pair with their JSON
# outputs (results/BENCH_backfill.json, results/BENCH_catalog.json,
# results/BENCH_walgroup.json, results/BENCH_obs.json).
bench:
	$(GO) test -bench=. -benchmem -benchtime 1x .
	$(GO) run ./cmd/bullfrog-bench -fig backfill -json results
	$(GO) run ./cmd/bullfrog-bench -fig catalog -json results
	$(GO) run ./cmd/bullfrog-bench -fig walgroup -json results
	$(GO) run ./cmd/bullfrog-bench -fig obs -json results

# Regenerate every evaluation figure (quick profile; see -profile medium/full).
figures:
	$(GO) run ./cmd/bullfrog-bench -fig all

# One annotated statement span end to end: a split migration with tracing
# on, the slow-op JSON stream on stderr, live progress/ETA, and the /trace
# snapshot (examples/tracing).
trace-demo:
	$(GO) run ./examples/tracing

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/tablesplit
	$(GO) run ./examples/aggregate
	$(GO) run ./examples/joinmigration
	$(GO) run ./examples/recovery
	$(GO) run ./examples/tracing

clean:
	$(GO) clean ./...
