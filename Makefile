GO ?= go

.PHONY: build generate test race vet benchcmp clean

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

# benchcmp measures the working tree against its parent commit on this
# machine: 10 alternating rounds of the go-bench suite and every
# BENCHMARK.json workload in both trees, judged by benchreport compare on
# the paired per-round ratios (exit 1 warn, 2 fail, 3 a round could not
# run). CI's perf job runs the same script. Outputs go to benchcmp.out/.
benchcmp:
	bash scripts/benchcmp.sh HEAD^1

clean:
	rm -rf benchcmp.out
