# Development workflow for the logr repository.
#
#   make build   compile every package and binary
#   make test    run the full test suite
#   make lint    gofmt check + the project invariant analyzers (cmd/logrvet
#                via `go vet -vettool`) + govulncheck when installed
#   make chaos   the exhaustive fault-injection sweep under -race: every IO
#                op of the durability workload x every fault class, plus the
#                WAL corruption fuzzer's corpus
#   make bench   the benchmark harness: bash bench/run.sh (see bench/README.md)

.PHONY: build test lint chaos bench

build:
	go build ./...

test:
	go test ./...

lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	go build -o bin/logrvet ./cmd/logrvet
	go vet -vettool=$(CURDIR)/bin/logrvet ./...
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

chaos:
	LOGR_CHAOS=1 go test -race -count=1 \
		-run 'TestFaultMatrix|TestFaultMatrixSyncLies|TestDegradedModeRecovery|TestDegradedDiskNeverHeals|TestDegradedGaugeSeesPoisonedWAL|TestCheckpoint|TestAutoCheckpoint|TestCrashBetween' \
		./internal/store/
	go test -race -count=1 -run 'TestDegradedModeHTTP' ./internal/server/
	go test -race -count=1 -run 'FuzzScan' ./internal/wal/

bench:
	bash bench/run.sh
