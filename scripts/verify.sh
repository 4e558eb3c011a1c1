#!/usr/bin/env sh
# Tier-1 verification gate (README §"Hermetic build").
#
# Runs entirely offline: the workspace has zero registry dependencies by
# policy, so --offline both enforces that policy (any reintroduced
# external crate fails resolution immediately) and makes the gate usable
# in air-gapped CI.
#
# Usage: scripts/verify.sh  (from anywhere; cd's to the repo root)
set -eu

cd "$(dirname "$0")/.."

# run_at_jobs N CMD...: runs CMD with every literal JOBS argument
# replaced by N.
run_at_jobs() {
    jobs=$1
    shift
    for arg do
        shift
        [ "$arg" = JOBS ] && arg=$jobs
        set -- "$@" "$arg"
    done
    "$@"
}

# same_at_jobs NAME N CMD...: runs CMD at --jobs 1 and at --jobs N (see
# run_at_jobs) and fails unless the two stdouts are byte-identical.
same_at_jobs() {
    name=$1
    par=$2
    shift 2
    run_at_jobs 1 "$@" > "$smoke_dir/${name}_seq.txt"
    run_at_jobs "$par" "$@" > "$smoke_dir/${name}_par.txt"
    if ! cmp -s "$smoke_dir/${name}_seq.txt" "$smoke_dir/${name}_par.txt"; then
        echo "FAIL: $name --jobs $par output differs from --jobs 1" >&2
        diff "$smoke_dir/${name}_seq.txt" "$smoke_dir/${name}_par.txt" >&2 || true
        exit 1
    fi
}

# must_cite NEEDLE ARGS...: `rh-lint ARGS` must fail, and its
# counterexample must cite NEEDLE (whose first word names the invariant).
must_cite() {
    needle=$1
    inv=${needle%% *}
    case $inv in I*) article=an ;; *) article=a ;; esac
    shift
    if cargo run -q --release -p rh-lint --offline -- \
        "$@" > "$smoke_dir/cite.txt" 2>&1; then
        echo "FAIL: $* must produce $article $inv counterexample" >&2
        exit 1
    fi
    if ! grep -q "$needle" "$smoke_dir/cite.txt"; then
        echo "FAIL: $* counterexample must cite $inv" >&2
        cat "$smoke_dir/cite.txt" >&2
        exit 1
    fi
}

echo "==> cargo build --release --workspace (offline)"
cargo build --release --workspace --offline

echo "==> cargo test -q --workspace (offline)"
cargo test -q --workspace --offline

# perfbench/ is its own Cargo workspace (BENCHMARK.json), so the steps
# above never compile it; build and test it here so a removed public API
# it depends on fails the gate instead of the benchmark.
echo "==> perfbench build + test (separate workspace, offline)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo doc --workspace --no-deps (offline, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> rh-lint --check (static analysis, ratcheted baseline)"
cargo run -q --release -p rh-lint --offline -- --check

echo "==> rh-lint protocol (warm-reboot interleaving checker)"
cargo run -q --release -p rh-lint --offline -- protocol --domains 3

echo "==> rh-lint protocol --faults (crash-recovery invariant I5)"
cargo run -q --release -p rh-lint --offline -- protocol --domains 3 --faults
if cargo run -q --release -p rh-lint --offline -- \
    protocol --domains 3 --faults --unsafe-recovery >/dev/null 2>&1; then
    echo "FAIL: --unsafe-recovery must produce an I5 counterexample" >&2
    exit 1
fi

smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT

echo "==> rh-lint fleet (rolling-campaign invariants I6/I7, DESIGN.md §14)"
cargo run -q --release -p rh-lint --offline -- fleet
# The rh-fleet simulator's wave driver must satisfy the same invariants
# under crash interleavings (it is the rule the datacenter campaigns run).
cargo run -q --release -p rh-lint --offline -- \
    fleet --driver wave --hosts 5 --max-down 2 --crashes 2
must_cite "I7 single-recovery" fleet --driver buggy-overlap

echo "==> rh-lint postcopy (stream-in invariants P1/P2, DESIGN.md §15)"
cargo run -q --release -p rh-lint --offline -- postcopy
must_cite "P1 validated-before-serve" postcopy --buggy

echo "==> rh-lint balloon (cell balloon invariants I8/I9, DESIGN.md §17)"
cargo run -q --release -p rh-lint --offline -- balloon --domains 3
must_cite "I8 frozen-frames-fenced" balloon --buggy
must_cite "I9 validated-before-map" balloon --buggy-deflate

echo "==> model-checker --jobs determinism smoke (jobs 1 vs 4)"
same_at_jobs protocol 4 \
    cargo run -q --release -p rh-lint --offline -- protocol --domains 4 --jobs JOBS
same_at_jobs fleet 4 cargo run -q --release -p rh-lint --offline -- fleet --jobs JOBS
same_at_jobs postcopy 4 cargo run -q --release -p rh-lint --offline -- postcopy --jobs JOBS
same_at_jobs balloon 4 cargo run -q --release -p rh-lint --offline -- balloon --jobs JOBS

echo "==> all --jobs 2 determinism smoke (reduced range, DESIGN.md §10)"
cargo run -q --release -p rh-bench --bin all --offline -- \
    --jobs 2 --max-n 3 --quick --json "$smoke_dir/par.json" \
    --trace-jsonl "$smoke_dir/par.jsonl" \
    > "$smoke_dir/par.txt"
cargo run -q --release -p rh-bench --bin all --offline -- \
    --jobs 1 --max-n 3 --quick --json "$smoke_dir/seq.json" \
    --trace-jsonl "$smoke_dir/seq.jsonl" \
    > "$smoke_dir/seq.txt"
par_digest=$(cksum < "$smoke_dir/par.txt")
seq_digest=$(cksum < "$smoke_dir/seq.txt")
if [ "$par_digest" != "$seq_digest" ]; then
    echo "FAIL: all --jobs 2 output differs from --jobs 1" >&2
    diff "$smoke_dir/seq.txt" "$smoke_dir/par.txt" >&2 || true
    exit 1
fi
for json in par seq; do
    if [ ! -s "$smoke_dir/$json.json" ]; then
        echo "FAIL: all did not write the $json BENCH_repro.json" >&2
        exit 1
    fi
done

echo "==> all --jobs 1 full reproduction golden"
# The reduced smoke above only compares the code against itself; the
# full paper reproduction must match the committed golden byte for byte.
cargo run -q --release -p rh-bench --bin all --offline -- --jobs 1 \
    > "$smoke_dir/all_full.txt"
if ! cmp -s crates/bench/golden/all_full.txt "$smoke_dir/all_full.txt"; then
    echo "FAIL: all --jobs 1 output differs from its golden" >&2
    diff crates/bench/golden/all_full.txt "$smoke_dir/all_full.txt" >&2 || true
    exit 1
fi

echo "==> observability gate (typed trace determinism + zero overhead)"
# The typed event stream must be byte-identical at any worker count.
if ! cmp -s "$smoke_dir/seq.jsonl" "$smoke_dir/par.jsonl"; then
    echo "FAIL: --trace-jsonl output differs between --jobs 1 and --jobs 2" >&2
    diff "$smoke_dir/seq.jsonl" "$smoke_dir/par.jsonl" >&2 || true
    exit 1
fi
if ! grep -q '"kind":"RebootComplete"' "$smoke_dir/seq.jsonl"; then
    echo "FAIL: trace JSONL is missing the RebootComplete event" >&2
    exit 1
fi
# Observability must be free: disabling the trace dump cannot change the
# benchmark report on stdout (profiling stays quarantined in the JSON).
cargo run -q --release -p rh-bench --bin all --offline -- \
    --jobs 1 --max-n 3 --quick --json - > "$smoke_dir/notrace.txt"
if ! cmp -s "$smoke_dir/seq.txt" "$smoke_dir/notrace.txt"; then
    echo "FAIL: enabling --trace-jsonl changed the report on stdout" >&2
    diff "$smoke_dir/notrace.txt" "$smoke_dir/seq.txt" >&2 || true
    exit 1
fi

echo "==> faults --jobs 2 determinism smoke (reliability fault sweep)"
same_at_jobs faults 2 \
    cargo run -q --release -p rh-bench --bin faults --offline -- --jobs JOBS --quick

echo "==> frontier --jobs 4 determinism smoke (strategy frontier sweep)"
same_at_jobs frontier 4 \
    cargo run -q --release -p rh-bench --bin frontier --offline -- --quick --jobs JOBS

echo "==> fleetbench --jobs 4 determinism smoke (datacenter fleet sweep)"
same_at_jobs fleetbench 4 \
    cargo run -q --release -p rh-bench --bin fleetbench --offline -- --quick --jobs JOBS

echo "==> fleetbench full grid golden (1,000 and 5,000 hosts)"
# The quick grid's 200 hosts never exercise placement at scale; the full
# grid's table must match the committed golden byte for byte.
cargo run -q --release -p rh-bench --bin fleetbench --offline -- --jobs 2 \
    > "$smoke_dir/fleetbench_full.txt"
if ! cmp -s crates/bench/golden/fleetbench_full.txt "$smoke_dir/fleetbench_full.txt"; then
    echo "FAIL: fleetbench full-grid output differs from its golden" >&2
    diff crates/bench/golden/fleetbench_full.txt "$smoke_dir/fleetbench_full.txt" >&2 || true
    exit 1
fi

echo "==> cellbench --jobs 4 determinism smoke (serverless cell sweep)"
same_at_jobs cellbench 4 \
    cargo run -q --release -p rh-bench --bin cellbench --offline -- --quick --jobs JOBS

echo "==> cellbench full grid golden (load x overcommit x strategy)"
# The jobs smoke above only compares the code against itself; the full
# grid's table must match the committed golden byte for byte.
cargo run -q --release -p rh-bench --bin cellbench --offline -- --jobs 1 \
    > "$smoke_dir/cellbench_full.txt"
if ! cmp -s crates/bench/golden/cellbench_full.txt "$smoke_dir/cellbench_full.txt"; then
    echo "FAIL: cellbench full-grid output differs from its golden" >&2
    diff crates/bench/golden/cellbench_full.txt "$smoke_dir/cellbench_full.txt" >&2 || true
    exit 1
fi

echo "==> bench gate (quick corebench vs committed BENCH_core.json)"
# Quick profile: same workload sizes as the committed full-profile
# baseline, fewer samples. Fails on a silent >15% throughput loss in the
# engine hot path or the digest machinery (PERFORMANCE.md §"Gate policy").
# A quick-profile miss escalates to a careful 15-sample run before the
# gate is declared failed: best-of-15 is robust to transient machine
# load, while a genuine regression fails both runs.
if ! cargo run -q --release -p rh-bench --bin corebench --offline -- \
    --quick --gate BENCH_core.json; then
    echo "==> bench gate: quick profile missed; rechecking with 15 samples"
    cargo run -q --release -p rh-bench --bin corebench --offline -- \
        --iters 15 --gate BENCH_core.json
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> verify OK"
