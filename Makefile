GO ?= go

.PHONY: build generate test race vet bench benchcmp clean

build:
	$(GO) build ./...

# generate rebuilds every *_gen.go file from the single op spec in
# internal/opspec via cmd/tiergen. CI fails if the committed generated
# files drift from the generator's output.
generate:
	$(GO) generate ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

# bench runs the experiment and microbenchmark suite (quick mode, five
# repetitions) and appends a snapshot for the current commit to the
# BENCH_substrate.json trajectory. The raw `go test` text is kept in
# bench.out for eyeballing.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x -count 5 -benchmem . | tee bench.out
	$(GO) run ./cmd/benchreport -o BENCH_substrate.json bench.out

# benchcmp re-measures the suite and diffs it against the committed
# baseline trajectory: exit 1 on a >10% mean regression (warn), exit 2 on
# >25% (hard fail). CI runs this warn-tolerant on shared runners.
benchcmp:
	$(GO) test -run '^$$' -bench . -benchtime 1x -count 5 -benchmem . | tee bench.out
	$(GO) run ./cmd/benchreport -flat -o bench.new.json bench.out
	$(GO) run ./cmd/benchreport compare BENCH_substrate.json bench.new.json

# clean removes scratch benchmark outputs only: BENCH_substrate.json is
# the committed trajectory and the baseline benchcmp compares against.
clean:
	rm -f bench.out bench.new.json
