#!/usr/bin/env sh
# CI gate: formatting, lints, every test binary once, the CLI end-to-end
# gates, and the serving benchmark at smoke scale (the one perf/e2e smoke;
# see benchmark/README.md).
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test --workspace (every test binary, once)"
# One run covers the named suites earlier revisions re-ran one by one:
#   od-tensor    kernel_equivalence (GEMM tiles bit-exact vs an ascending-
#                index triple loop at every SimdLevel; seeded continuation
#                == one-shot product)
#   odnet-core   frozen_equivalence (artifact vs live tape; JSON/bin/mmap
#                bit-identity), batched_equivalence, head_equivalence
#                (fused, prefix-seeded MMoE head vs the per-layer forward),
#                artifact_corruption (.odz loader rejects tampered files)
#   od-retrieval retrieval_equivalence (SIMD top-k bit-exact vs the scalar
#                oracle, owned == mmap), recall_gate (recall@64 >= 0.99 at
#                >= 5x scan reduction)
#   od-obs       unit + property suites, exposition (render -> parse-back
#                lint), trace hammer
#   od-serve     engine_equivalence (engine vs direct scoring, coalescing
#                engaged, stage clock populated), chaos (panic isolation,
#                deadlines, supervision, hot swaps under load), funnel,
#                trace_spans (well-formed span trees)
#   od-http      parser fuzz table, socket chaos suite (hostile peers,
#                overload ladder, X-Request-Id echo, graceful drain)
cargo test -q --workspace

echo "==> http serving e2e smoke (freeze -> serve --artifact -> drain)"
# Freezes an untrained artifact in both formats, boots the real HTTP tier
# over the mmap'd .odz and drives every route over a socket: scores
# bit-exact with direct scoring, both funnel stages stamped with the
# loaded artifact's generation, readiness + od_http_* exposition, a
# tail-captured trace, then a clean drain.
cargo run --release --bin odnet -- freeze --out target/ci_artifact
cargo run --release --bin odnet -- serve --artifact target/ci_artifact.odz --smoke

echo "==> online loop smoke (drift -> retrain -> freeze -> publish)"
# Two simulated days through a live engine: serve, fold the click stream
# into training, freeze to .odz, hot-publish, repeat. Exercises the full
# odnet online path end to end.
cargo run --release --bin odnet -- online --rounds 2 --panel 10 --users 40 \
    --cities 12 --out-dir target/ci_online --metrics-jsonl target/ci_online/rounds.jsonl

echo "==> serving benchmark (smoke scale) + harness self-tests"
# All four wire workloads, untraced then traced, on a 20k-user universe:
# every response verified, every BENCHMARK.json metric printed by name.
# Checks the harness and the pinned API surface, not the numbers.
benchmark/run.sh --smoke
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml

echo "CI OK"
