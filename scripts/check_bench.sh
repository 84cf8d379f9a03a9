#!/usr/bin/env bash
# check_bench.sh — gate the hot-path allocation ceilings (ISSUE 9).
#
# Runs the wire codec, warm-handshake and certificate-issuance
# microbenchmarks and fails if any allocs/op figure exceeds its committed
# ceiling, so the zero-alloc codec seam and the sign-once issuance path can
# never silently regress. Throughput ceilings are gated separately,
# at runtime, by the load profiles' SLO blocks (retransmissions, latency,
# lost sessions) — allocation is the only axis a microbenchmark measures
# deterministically on shared CI hardware.
#
# Ceilings (see BENCH_9.json for the measured values they bound):
#   AppendToQUE2    0 allocs/op  — the zero-alloc append path, exactly zero
#   EncodeQUE2      1 alloc/op   — thin wrapper: one buffer per Encode
#   DecodeQUE2      8 allocs/op  — decode-from-borrowed-slice
#   WarmHandshake 500 allocs/op  — full L2 round; ~446 measured, nearly all
#                                  inside stdlib ECDSA/ECDH
#   IssueCert     700 allocs/op  — one P-256 leaf issuance; ~462 measured
#                                  (one DER build, ~2 signatures); rebuilding
#                                  the certificate per signature was ~1640
set -euo pipefail
cd "$(dirname "$0")/.."

out=$(go test -bench='QUE2|WarmHandshake|IssueCert' -benchmem -run='^$' -benchtime=100x \
	./internal/wire ./internal/core ./internal/cert)
echo "$out"

fail=0
check() {
	local name=$1 max=$2 allocs
	allocs=$(echo "$out" | awk -v n="^$name" '$1 ~ n {print $(NF-1); exit}')
	if [ -z "$allocs" ]; then
		echo "check_bench: benchmark $name not found in output" >&2
		fail=1
	elif [ "$allocs" -gt "$max" ]; then
		echo "check_bench: $name allocates $allocs/op > ceiling $max" >&2
		fail=1
	fi
}

check BenchmarkAppendToQUE2 0
check BenchmarkEncodeQUE2 1
check BenchmarkDecodeQUE2 8
check BenchmarkWarmHandshake 500
check BenchmarkIssueCert 700

if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "check_bench: all allocation ceilings hold"
