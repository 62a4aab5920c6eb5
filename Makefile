.PHONY: build test lint check verify serve-test bench bench-kernel kernel-test batch-test qos-test lut-test

build:
	go build ./...

test:
	go test ./...

# Static analysis: crypto-safety/concurrency analyzers over the Go module.
lint:
	go run ./cmd/pytfhelint ./...

# Semantic analysis: noise-budget dataflow + plan-soundness verification
# over the bench netlist and every example circuit (`pytfhe check`).
check:
	go run ./cmd/pytfhe check -bench -examples

# gofmt + vet + lint + build + race-checked tests on the concurrency-heavy
# packages + netlist lint of a compiled benchmark.
verify:
	./scripts/verify.sh

# Race-checked tests for the serving stack: shared executor, wire format,
# and the pytfhed server (concurrent sessions, backpressure, drain), plus
# 15 s of FuzzUnmarshalCloudKey — the decoder every uploaded key meets.
serve-test:
	go test -race ./internal/serve/... ./internal/wire/... ./internal/backend/...
	go test -race -run '^$$' -fuzz FuzzUnmarshalCloudKey -fuzztime 15s ./internal/tfhe/boot/

# Race-checked QoS + observability subsystem: the weighted fair queue,
# per-tenant quotas, byte-accounted LRU caches, the Prometheus-text
# telemetry registry, the shared executor's fairness/quota/key-release
# behavior, and the pytfhed cache-eviction, key-lifecycle, quota, and
# /metrics end-to-end scenarios.
qos-test:
	go test -race ./internal/qos/... ./internal/telemetry/...
	go test -race -run 'TestShared(FairnessUnderLoad|TenantQuota|ReleaseKey)' ./internal/backend/
	go test -race -run 'TestServe(PlanCacheEviction|KeyLifecycleRelease|TenantQuota|MetricsEndpoint)' ./internal/serve/

# Race-checked multi-bit LUT path, end to end: truth-table solving and
# feasibility (logic), the circuit node and asm instruction formats, the
# lut-cluster synthesis pass, the programmable-bootstrap kernel, the LUT
# noise model, bit-exactness across every executor (sync/async/shared),
# plan compile/dedup/replay, shard hashing, cluster dispatch, the
# pytfhed -lut serving surface, and the Fig. 14 LUT sweep.
lut-test:
	go test -race -run 'LUT' ./internal/logic/ ./internal/circuit/ ./internal/asm/ \
		./internal/synth/ ./internal/tfhe/boot/ ./internal/tfhe/gate/ ./internal/tfhe/noise/ \
		./internal/exec/ ./internal/backend/ ./internal/plan/ ./internal/shard/ \
		./internal/cluster/ ./internal/serve/ ./internal/experiments/ ./cmd/pytfhe/

# Go benchmarks plus the plan capture/replay measurement, which lands as
# BENCH_PLAN.json — the replay performance trajectory. The -planbaseline
# flag is the bench-parity guard: the fresh Async and Planned throughputs
# must stay within 10% of the committed baseline.
bench:
	go test -bench=. -benchmem -run '^$$' .
	go run ./cmd/experiments -quick -planbench -planbaseline BENCH_PLAN.json -planout BENCH_PLAN.json

# Kernel hot-path microbenchmarks: the half-complex fold, unfold and
# multiply-accumulate and the key-switch row subtraction (each as generic
# and asm sub-benchmarks), the gadget decomposition, the CMux
# blind-rotation step at batch sizes 1..64, the end-to-end
# single-vs-batched bootstrap sweep, and the per-session cloud-key costs
# at Default128 (encode, decode, content hash).
bench-kernel:
	go test -bench 'BenchmarkKernel' -benchmem -run '^$$' ./internal/torus/ ./internal/tfhe/tgsw/
	go test -bench 'BenchmarkBatchBootstrap' -benchmem -run '^$$' .
	go test -bench 'BenchmarkCloudKeyCodec' -benchmem -run '^$$' ./internal/wire/

# AVX2/FMA kernels: vet (asmdecl checks every assembly frame against its Go
# declaration), the asm-vs-generic oracles and key-switch tests under
# -race, 15 s of FuzzHalfMul, and an arm64 cross-build so the portable
# fallback keeps compiling.
kernel-test:
	go vet ./internal/torus/ ./internal/tfhe/lwe/
	go test -race ./internal/torus/ ./internal/tfhe/lwe/
	go test -race -run '^$$' -fuzz FuzzHalfMul -fuzztime 15s ./internal/torus/
	GOARCH=arm64 go build ./...

# Race-checked equivalence tests for the batched blind-rotation engine:
# BootstrapBatch/BinaryBatch bit-exactness against the single path, the
# lock-free twiddle cache, and the batch-draining executors.
batch-test:
	go test -race -run 'Batch|Tables' ./internal/torus/ ./internal/tfhe/tgsw/ ./internal/tfhe/boot/ ./internal/tfhe/gate/
	go test -race -run 'Batch|Matrix|Shared|Async|Replay' ./internal/exec/ ./internal/backend/ ./internal/plan/
	go test -race -run 'TestServeCrossRequestBatching' ./internal/serve/
