#!/usr/bin/env sh
# CI gate: formatting, lints, doc links, every test binary once, the CLI
# operator-path gates, and the serving benchmark at smoke scale (the one
# perf/e2e smoke; see benchmark/README.md).
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> benchmark harness builds and passes its unit tests (the API surface benchmark/ pins)"
# benchmark/ is its own package and may not change with the product, so a
# product change that breaks one of its calls, or changes what its ledger
# reads out of a serde_json::Value, fails here, in seconds, under this
# step's name. run.sh --smoke below reuses this build.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo doc (-D broken intra-doc links)"
# Docs name code by path; a deleted or renamed item must take its mentions
# with it.
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" \
    cargo doc --workspace --no-deps --offline

echo "==> cargo test --workspace (every test binary, once)"
# One run covers the named suites earlier revisions re-ran one by one:
#   od-tensor    kernel_equivalence (GEMM tiles bit-exact vs an ascending-
#                index triple loop at every SimdLevel; seeded continuation
#                == one-shot product)
#   odnet-core   batched_equivalence (tape logits, probabilities and loss
#                vs the f64 reference of Algorithm 1 and Eqs. 3–11),
#                frozen_equivalence (artifact == live tape by to_bits and
#                within the reference's tolerance; .odz owned/mmap
#                bit-identity; checkpoint reload + freeze == in-process
#                freeze, .odz byte for byte), head_equivalence
#                (fused, prefix-seeded MMoE head vs the per-layer forward),
#                artifact_corruption (.odz loader rejects tampered files)
#   od-retrieval both tiers' select vs a full sort (ties, ±0.0, twin runs
#                across rank k+1, every n <= 40 and k), retrieval_equivalence
#                (top-k bit-exact vs the scalar oracle at every SimdLevel,
#                owned == mmap, pruned tier == exact tier incl. planted ties,
#                pruned computes <= 1/50 of exact's pair sums at 200 cities
#                and k = 64, both collect the n²−n universe at k = n²−n)
#   od-obs       unit + property suites, exposition (render -> parse-back
#                lint), trace hammer
#   od-serve     engine_equivalence (engine vs direct scoring, coalescing
#                engaged, stage clock populated), chaos (panic isolation,
#                deadlines, supervision, hot swaps under load), funnel
#                (racing publishers leave both stages on the live
#                generation), trace_spans (well-formed span trees)
#   od-http      parser fuzz table, socket chaos suite (every route bit-exact
#                and version-stamped, hostile peers, overload ladder,
#                unbounded k, repeated keys, X-Request-Id echo, graceful
#                drain, a gated slow request tail-captured with its span
#                chain + Chrome export), wire (golden head + body bytes of
#                both scoring 200s), request_decode (decoder vs encoder over
#                any layout, prefixes, byte mutations), decode_allocs (a
#                64-candidate body decodes in <= 32 allocations)
cargo test -q --workspace

echo "==> bit-exactness gates again, optimized"
# The suites whose subject is float bits the optimizer could reorder or
# the decoder could round: what ships is the release build, so they also
# run against it. The core forward suites: frozen == tape by to_bits, the
# fused head == the per-layer forward, and both forwards within the f64
# reference's tolerance. od-retrieval runs whole: the select stage's unit
# oracle and retrieval_equivalence (pruned == exact bit for bit, pruned
# computes <= 1/50 of exact's pair sums at k = 64).
cargo test -q --release -p od-tensor --test kernel_equivalence
cargo test -q --release -p odnet-core --test batched_equivalence \
    --test frozen_equivalence --test head_equivalence
cargo test -q --release -p od-retrieval
cargo test -q --release --offline --manifest-path vendor/serde_json/Cargo.toml \
    --target-dir target/vendor --test f32_format
rm -f vendor/serde_json/Cargo.lock

echo "==> vendored serde + serde_json tests"
# vendor/ is outside the workspace, so the run above never builds these:
#   serde        Content accessors (derive on)
#   serde_json   emitter and pull-decoder units (integer rules, fixed-length
#                sequences, unknown / repeated / missing struct keys, packing
#                of dynamic values), f32_format (the f32 printer == Display
#                and encode -> decode == identity over a ~1M-pattern sweep
#                of all bit patterns), shapes (every derive shape prints its
#                pinned text, compact and pretty, and reads back as itself)
# Build output goes under target/; the lockfile cargo writes beside a
# manifest that is its own root is removed again, so vendor/ stays source.
cargo test -q --offline --manifest-path vendor/serde/Cargo.toml --features derive \
    --target-dir target/vendor
cargo test -q --offline --manifest-path vendor/serde_json/Cargo.toml \
    --target-dir target/vendor
rm -f vendor/serde/Cargo.lock vendor/serde_json/Cargo.lock

echo "==> operator path (train -> freeze --model -> recommend --artifact -> serve --artifact -> drain)"
# The commands an operator runs, nothing else: train a graph-variant
# checkpoint (weights only), reload and freeze it to .odz, serve one user
# from the mmap'd file through the funnel, boot the HTTP tier over it (mmap
# load, universe check, bind an ephemeral port), and let stdin EOF start
# the graceful drain — exit 0 only if it settled cleanly. What the routes
# answer is the chaos suite's job above and, over a real socket on an
# mmap'd .odz, benchmark/run.sh's below.
cargo run --release --bin odnet -- train --users 40 --cities 12 --epochs 1 \
    --variant odnet --out target/ci_model.json
cargo run --release --bin odnet -- freeze --model target/ci_model.json \
    --out target/ci_artifact.odz
# The cold-start path, no checkpoint: an untrained artifact from sizes alone.
cargo run --release --bin odnet -- freeze --out target/ci_untrained.odz
cargo run --release --bin odnet -- recommend --artifact target/ci_artifact.odz \
    --user 0 --top-k 5
cargo run --release --bin odnet -- serve --artifact target/ci_artifact.odz \
    --addr 127.0.0.1:0 </dev/null

echo "==> online loop smoke (drift -> retrain -> freeze -> publish)"
# Two simulated days through one live funnel: serve, fold the click stream
# into training, freeze to .odz, hot-publish, repeat. Exercises the full
# odnet online path end to end.
cargo run --release --bin odnet -- online --rounds 2 --panel 10 --users 40 \
    --cities 12 --out-dir target/ci_online --metrics-jsonl target/ci_online/rounds.jsonl

echo "==> serving benchmark (smoke scale)"
# All four wire workloads, untraced then traced, on a 20k-user universe:
# every response verified, every BENCHMARK.json metric printed by name.
# Checks the harness and the pinned API surface, not the numbers.
benchmark/run.sh --smoke

echo "CI OK"
