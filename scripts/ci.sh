#!/usr/bin/env bash
# CI gate: format check, build, test (including the feature-gated
# fault-injection suites), and lint with warnings promoted to errors.
set -euo pipefail
cd "$(dirname "$0")/.."

# Formatting gate: the root workspace is rustfmt-clean. (`benchmark/` is
# a workspace of its own and is not checked here.)
cargo fmt --all -- --check

# Offline gate: every manifest names only path crates, so the workspace
# builds and tests from an empty Cargo home with no network, and the
# generated lockfile names no registry.
offline_home="$(mktemp -d)"
CARGO_HOME="$offline_home" cargo build --release --offline
CARGO_HOME="$offline_home" cargo test -q --offline --workspace
rm -rf "$offline_home"
if grep -q '^source = "registry+' Cargo.lock; then
    echo "Cargo.lock names a registry package; the workspace must stay path-only" >&2
    exit 1
fi

cargo test -q -p ldafp-bnb --features fault-injection
# The workspace clippy steps build without the feature, so lint the
# fault-injection code (`FaultyProblem`, the faulted test suites) here.
cargo clippy -p ldafp-bnb --all-targets --features fault-injection -- -D warnings
cargo test -q -p ldafp-core --features fault-injection

# Serving layer: artifact/engine/wire units and the corruption suite,
# plus the CLI train→save→serve→TCP round-trip, then lint the crate
# explicitly.
cargo build --release -p ldafp-serve
# This runs the engine's tests once on the scalar build. No library crate
# turns on `ldafp-kernels/simd`, so `ldafp-serve` built alone gets the
# portable quantizer and the reference MAC kernel; the workspace run above
# tested the same engine with the AVX2 paths, which the CLI and the
# umbrella crate turn on. The tree check fails when a dependency starts
# turning the feature on again.
serve_kernel_features="$(cargo tree -q --offline -p ldafp-serve -i ldafp-kernels --depth 0 -f '{f}')"
if [ -n "$serve_kernel_features" ]; then
    echo "ldafp-serve alone builds ldafp-kernels with features: $serve_kernel_features" >&2
    exit 1
fi
cargo test -q -p ldafp-serve
cargo test -q -p ldafp-cli --test serve_roundtrip
# The dense linear algebra and the barrier solver, linted on their own so
# that a lint in a crate linted later does not hide theirs.
cargo clippy -p ldafp-linalg -p ldafp-solver --all-targets -- -D warnings
cargo clippy -p ldafp-serve --all-targets -- -D warnings

# Exploration layer: engine/cache/pareto units and the end-to-end sweep
# and cache tests, then a CLI smoke sweep on the built-in demo workload.
# The smoke checks the exit-code contract, not certification: 0 (the
# frontier's best point certified) and 2 (it ended budget-exhausted or
# degraded) both pass; any other status fails.
cargo build --release -p ldafp-explore
cargo test -q -p ldafp-explore
smoke_status=0
cargo run --release -q -p ldafp-cli -- explore --quick --threads 2 --max-bits 5 \
    > /dev/null || smoke_status=$?
case "$smoke_status" in
    0|2) ;;
    *) echo "explore smoke failed with status $smoke_status" >&2; exit 1 ;;
esac

# Every design point runs its own search, so the thread count must not
# change a sweep: the Pareto reports at one and two workers are
# byte-equal. Exit 2 (an uncertified best point) is tolerated; the cmp
# is the check.
det_tmp="$(mktemp -d)"
trap 'rm -rf "$det_tmp"' EXIT
for t in 1 2; do
    cargo run --release -q -p ldafp-cli -- explore --quick --max-bits 5 \
        --threads "$t" --pareto "$det_tmp/t$t.md" > /dev/null || true
done
cmp "$det_tmp/t1.md" "$det_tmp/t2.md" \
    || { echo "explore --pareto differs between 1 and 2 threads" >&2; exit 1; }
rm -rf "$det_tmp"

# Ablation harness: every trainer variant it lists still builds and trains.
cargo run --release -q -p ldafp-bench --bin ablation -- --quick > /dev/null
# Table 1 harness, certificate and search-gap columns included.
cargo run --release -q -p ldafp-bench --bin table1 -- --quick > /dev/null
# Table 2 harness on its reduced trainer config (about 1 s).
cargo run --release -q -p ldafp-bench --bin table2 -- --quick > /dev/null

# Observability layer: facade units + histogram edge cases, the
# tracing-soundness test (subscriber must not change training results),
# then an end-to-end --trace smoke: train with the NDJSON stream on,
# validate every line with trace-check, and assert the expected solver
# instrumentation actually fired. Finally the overhead gate, a release-mode
# test that fails when the disabled facade costs >= 2% of solver wall time.
cargo test -q -p ldafp-obs
cargo test -q -p ldafp-core --test obs_soundness
cargo clippy -p ldafp-obs --all-targets -- -D warnings
# `ldafp-obs` also holds the workspace's one JSON module, which every
# layer uses; the crate stays a leaf, so its normal dependency tree is
# the crate alone.
obs_tree="$(cargo tree -q --offline -p ldafp-obs -e normal --prefix none)"
if grep -qv '^ldafp-obs ' <<< "$obs_tree"; then
    printf 'ldafp-obs must stay a leaf crate; its tree lists:\n%s\n' "$obs_tree" >&2
    exit 1
fi
obs_tmp="$(mktemp -d)"
trap 'rm -rf "$obs_tmp"' EXIT
for i in $(seq 0 19); do
    printf '%s,%s,A\n' "-0.4$i" "0.0$i"
    printf '%s,%s,B\n' "0.4$i" "-0.0$i"
done > "$obs_tmp/train.csv"
# The traced training needs a search that branches, so that expansions and
# prunes reach the trace: on the set above the root's bound (float LDA's
# cost) already certifies the root's candidate at every word length.
for i in $(seq 0 19); do
    printf '%s,%s,A\n' "-0.4$i" "0.$(( (i * 7) % 10 ))"
    printf '%s,%s,B\n' "0.4$i" "-0.$(( (i * 3) % 10 ))"
done > "$obs_tmp/search.csv"
train_status=0
cargo run --release -q -p ldafp-cli -- train --data "$obs_tmp/search.csv" \
    --bits 6 --quick --trace "$obs_tmp/trace.ndjson" --metrics-summary \
    > /dev/null 2> "$obs_tmp/train.err" || train_status=$?
case "$train_status" in
    0|2|3) ;; # training-outcome contract: only 1 is a hard error
    *) echo "train --trace smoke failed with status $train_status" >&2; exit 1 ;;
esac
cargo run --release -q -p ldafp-cli -- trace-check --input "$obs_tmp/trace.ndjson"
for event in bnb.expand bnb.prune bnb.incumbent solver.solved registry.dump; do
    grep -q "\"event\":\"$event\"" "$obs_tmp/trace.ndjson" \
        || { echo "missing $event in trace" >&2; exit 1; }
done
# The solver's stage ledger closes: every traced solve carries its stage
# fields, its line-search trial and phase-I step counts, the objective,
# duality-gap bound and retry count that a node's bound and `Recovered`
# label come from, and that bound itself (`bound`, objective constant
# included; a non-finite number is written as null, so the numeric match
# also requires it finite); over the trace the Newton-step stages
# (assembly, factor, line search) add up to 0.85–1.15 of the solves'
# summed elapsed_us.
awk 'BEGIN { fields = split("assembly_us factor_us line_search_us phase1_us elapsed_us line_search_trials phase1_steps objective duality_gap_bound retries bound", field, " ") }
    /"event":"solver.solved"/ {
        solves++
        for (k = 1; k <= fields; k++) {
            f = field[k]
            if (!match($0, "\"" f "\":[-0-9.eE+]+")) { print "solver.solved without " f > "/dev/stderr"; bad = 1; exit 1 }
            sum[k] += substr($0, RSTART + length(f) + 3, RLENGTH - length(f) - 3)
        }
    }
    END {
        if (bad) exit 1
        if (solves == 0 || sum[5] <= 0) { print "no timed solver.solved events" > "/dev/stderr"; exit 1 }
        ratio = (sum[1] + sum[2] + sum[3]) / sum[5]
        if (ratio < 0.85 || ratio > 1.15) {
            printf "solver stage sum is %.3f of elapsed_us over %d solves\n", ratio, solves > "/dev/stderr"; exit 1
        }
    }' "$obs_tmp/trace.ndjson"
grep -q 'bnb.solves' "$obs_tmp/train.err" \
    || { echo "--metrics-summary printed no registry" >&2; exit 1; }
cargo test --release -q -p ldafp-bench --test obs_gate

# Parallel search layer: `ldafp_bnb::solve` takes the thread count, and
# its bit-identity proptests (1 thread against N), worker-span obs
# contract and fault-injected degradation parity run as part of the suites
# above; here the whole workspace test suite is repeated once with a
# 4-thread solver pool (results must be bit-identical, so everything still
# passes), then the speedup gate, a release-mode test that fails when any
# timed outcome differs from the 1-thread one or the 4-thread latency-sim
# search fails to reach 1.5x over 1 thread.
LDAFP_SOLVER_THREADS=4 cargo test -q --workspace
cargo test --release -q -p ldafp-bench --test bnb_par_gate

# Checkpoint/resume layer: snapshot codec + bit-identical-resume property
# tests run in the suites above; the in-process kill–resume chaos harness
# (fixed seeds) drives the real binary through SIGKILL-style aborts and a
# cooperative SIGINT.
cargo test -q -p ldafp-cli --test chaos_resume

# Then the explicit chaos gate: crash a sweep right after its first
# durable snapshot write, resume it with tracing on, and require (a) the
# resumed run to load a mid-solve snapshot (`resume.loaded`), (b) a third
# pass to come back entirely from the cache (`resume.skipped`, no
# re-solving), and (c) the deterministic Pareto report to be byte-equal
# to a never-crashed baseline's.
chaos_tmp="$(mktemp -d)"
trap 'rm -rf "$obs_tmp" "$chaos_tmp"' EXIT
explore_args=(explore --quick --threads 1 --min-bits 3 --max-bits 5 --checkpoint-nodes 4)
cargo run --release -q -p ldafp-cli -- "${explore_args[@]}" \
    --resume "$chaos_tmp/base" --pareto "$chaos_tmp/base.md" > /dev/null || true
crash_status=0
LDAFP_CRASH_AFTER_CHECKPOINTS=1 cargo run --release -q -p ldafp-cli -- \
    "${explore_args[@]}" --resume "$chaos_tmp/chaos" \
    --pareto "$chaos_tmp/chaos.md" > /dev/null 2>&1 || crash_status=$?
[ "$crash_status" -ne 0 ] || { echo "chaos run did not crash" >&2; exit 1; }
cargo run --release -q -p ldafp-cli -- "${explore_args[@]}" \
    --resume "$chaos_tmp/chaos" --pareto "$chaos_tmp/chaos.md" \
    --trace "$chaos_tmp/resume.ndjson" > /dev/null || true
grep -q '"event":"resume.loaded"' "$chaos_tmp/resume.ndjson" \
    || { echo "resumed run loaded no snapshot" >&2; exit 1; }
cmp "$chaos_tmp/base.md" "$chaos_tmp/chaos.md" \
    || { echo "resumed pareto report differs from baseline" >&2; exit 1; }
cargo run --release -q -p ldafp-cli -- "${explore_args[@]}" \
    --resume "$chaos_tmp/chaos" --pareto "$chaos_tmp/chaos.md" \
    --trace "$chaos_tmp/rerun.ndjson" > /dev/null || true
grep -q '"event":"resume.skipped"' "$chaos_tmp/rerun.ndjson" \
    || { echo "rerun re-solved cached points" >&2; exit 1; }
grep -q '"event":"checkpoint.write"' "$chaos_tmp/rerun.ndjson" \
    && { echo "rerun re-solved (wrote checkpoints)" >&2; exit 1; }
cargo run --release -q -p ldafp-cli -- trace-check --input "$chaos_tmp/resume.ndjson" > /dev/null
cmp "$chaos_tmp/base.md" "$chaos_tmp/chaos.md" \
    || { echo "rerun changed the pareto report" >&2; exit 1; }

# Model-family layer: trainer/classify units and proptests for the
# pluggable families, then a per-family train→--out→predict round-trip
# through the real binary (naive Bayes and OS-ELM exit 0 on success;
# LDA keys its exit on the training-outcome contract), a family sweep
# smoke with tracing on (validated by trace-check, and the family-tagged
# train.start events must actually fire), and a family-sweep resume
# determinism check: a re-run over the same state dir must come back
# entirely from the cache and render a byte-identical Pareto report.
cargo test -q -p ldafp-models
fam_tmp="$(mktemp -d)"
trap 'rm -rf "$obs_tmp" "$chaos_tmp" "$fam_tmp"' EXIT
for family in lda naive-bayes os-elm; do
    fam_status=0
    # Only the LDA search reads --quick; the other families refuse it.
    quick=()
    [ "$family" = lda ] && quick=(--quick)
    cargo run --release -q -p ldafp-cli -- train --data "$obs_tmp/train.csv" \
        --bits 8 "${quick[@]}" --family "$family" \
        --out "$fam_tmp/$family.ldafp.json" > /dev/null || fam_status=$?
    case "$family:$fam_status" in
        lda:0|lda:2|lda:3|naive-bayes:0|os-elm:0) ;;
        *) echo "train --family $family failed with status $fam_status" >&2; exit 1 ;;
    esac
    cargo run --release -q -p ldafp-cli -- predict \
        --model "$fam_tmp/$family.ldafp.json" --input "$obs_tmp/train.csv" \
        | grep -q '^# rows: 40' \
        || { echo "predict --family $family round-trip failed" >&2; exit 1; }
done
# The same model file feeds the describing commands: info, eval and
# export-rtl read the LDA artifact and refuse other kinds with exit 1.
cargo run --release -q -p ldafp-cli -- info --model "$fam_tmp/lda.ldafp.json" \
    > "$fam_tmp/lda.info"
grep -qF 'w[  0]' "$fam_tmp/lda.info" \
    || { echo "info on the lda artifact printed no weights" >&2; exit 1; }
cargo run --release -q -p ldafp-cli -- eval --model "$fam_tmp/lda.ldafp.json" \
    --data "$obs_tmp/train.csv" > "$fam_tmp/lda.eval"
grep -qF 'error rate' "$fam_tmp/lda.eval" \
    || { echo "eval on the lda artifact printed no error rate" >&2; exit 1; }
cargo run --release -q -p ldafp-cli -- export-rtl --model "$fam_tmp/lda.ldafp.json" \
    --testbench > "$fam_tmp/lda.v"
grep -qF 'module ldafp_classifier (' "$fam_tmp/lda.v" \
    || { echo "export-rtl on the lda artifact emitted no module" >&2; exit 1; }
info_status=0
cargo run --release -q -p ldafp-cli -- info --model "$fam_tmp/naive-bayes.ldafp.json" \
    > /dev/null 2>&1 || info_status=$?
[ "$info_status" -eq 1 ] \
    || { echo "info on a naive-bayes artifact exited $info_status, not 1" >&2; exit 1; }
fam_args=(explore --threads 1 --min-bits 6 --max-bits 8 --family naive-bayes,os-elm
          --data "$obs_tmp/train.csv")
sweep_status=0
cargo run --release -q -p ldafp-cli -- "${fam_args[@]}" \
    --resume "$fam_tmp/state" --pareto "$fam_tmp/a.md" \
    --trace "$fam_tmp/family.ndjson" > /dev/null || sweep_status=$?
case "$sweep_status" in
    0|2) ;; # 2 = an uncertified OS-ELM point tops the frontier; not an error
    *) echo "family sweep failed with status $sweep_status" >&2; exit 1 ;;
esac
cargo run --release -q -p ldafp-cli -- trace-check --input "$fam_tmp/family.ndjson" > /dev/null
grep -q '"event":"train.start".*"family":"naive-bayes"' "$fam_tmp/family.ndjson" \
    || { echo "family sweep emitted no naive-bayes train.start" >&2; exit 1; }
cargo run --release -q -p ldafp-cli -- "${fam_args[@]}" \
    --resume "$fam_tmp/state" --pareto "$fam_tmp/b.md" \
    --trace "$fam_tmp/family2.ndjson" > /dev/null || true
grep -q '"event":"resume.skipped"' "$fam_tmp/family2.ndjson" \
    || { echo "family sweep re-run re-trained cached points" >&2; exit 1; }
cmp "$fam_tmp/a.md" "$fam_tmp/b.md" \
    || { echo "family pareto report differs across resume" >&2; exit 1; }
cargo clippy -p ldafp-models --all-targets -- -D warnings

# Server (`ldafp-net`): epoll-loop units, the loopback integration suite
# (bit-identity across codecs and families, hot reload, micro-batching,
# load-shedding, slowloris/garbage hostile input), the binary-codec
# proptests, and the CLI evented round trip.
cargo test -q -p ldafp-net
cargo test -q -p ldafp-cli --test evented_roundtrip
cargo clippy -p ldafp-net --all-targets -- -D warnings

# Then the loopback gate through the real binary: the same artifacts
# served over both codecs (mixed families through the hot-reload
# registry, concurrent clients) must produce predict output
# byte-identical to the local run, and the server's NDJSON trace must
# pass trace-check with the net.* event families present.
net_tmp="$(mktemp -d)"
trap 'rm -rf "$obs_tmp" "$chaos_tmp" "$fam_tmp" "$net_tmp"' EXIT
ldafp=target/release/ldafp

# Local reference output per family (predict's CSV is byte-stable).
for family in lda naive-bayes os-elm; do
    "$ldafp" predict --model "$fam_tmp/$family.ldafp.json" \
        --input "$obs_tmp/train.csv" > "$net_tmp/$family.local"
done

# wait_for_addr <errfile>: echoes the resolved host:port once the server
# has logged it (servers bind port 0, so the port is dynamic).
wait_for_addr() {
    local addr
    for _ in $(seq 1 100); do
        addr="$(grep -oE '127\.0\.0\.1:[0-9]+' "$1" | head -n 1 || true)"
        if [ -n "$addr" ]; then echo "$addr"; return 0; fi
        sleep 0.1
    done
    echo "server never logged its address ($1)" >&2
    return 1
}

# The server with the three-family registry and tracing on: concurrent
# mixed-codec clients, each family routed through the registry, must all
# come back byte-identical to the local outputs.
"$ldafp" serve --model "$fam_tmp/lda.ldafp.json" \
    --models "naive-bayes=$fam_tmp/naive-bayes.ldafp.json,os-elm=$fam_tmp/os-elm.ldafp.json" \
    --addr 127.0.0.1:0 --trace "$net_tmp/net.ndjson" \
    > /dev/null 2> "$net_tmp/evented.err" &
evented_pid=$!
eaddr="$(wait_for_addr "$net_tmp/evented.err")"
client_pids=()
for wire in binary json; do
    "$ldafp" predict --addr "$eaddr" --wire "$wire" --input "$obs_tmp/train.csv" \
        > "$net_tmp/lda.evented.$wire" &
    client_pids+=($!)
    for family in naive-bayes os-elm; do
        "$ldafp" predict --addr "$eaddr" --wire "$wire" --name "$family" \
            --input "$obs_tmp/train.csv" > "$net_tmp/$family.evented.$wire" &
        client_pids+=($!)
    done
done
for pid in "${client_pids[@]}"; do
    wait "$pid" || { echo "a concurrent evented client failed" >&2; exit 1; }
done
# Hot reload while the server is up, then predict through the new route
# with a binary and a JSON client that dial the server by host name.
"$ldafp" reload --addr "$eaddr" --model "$fam_tmp/naive-bayes.ldafp.json" \
    --name reloaded > /dev/null
"$ldafp" predict --addr "localhost:${eaddr#*:}" --wire binary --name reloaded \
    --input "$obs_tmp/train.csv" > "$net_tmp/reloaded.evented"
"$ldafp" predict --addr "localhost:${eaddr#*:}" --wire json --name reloaded \
    --input "$obs_tmp/train.csv" > "$net_tmp/reloaded.evented.json"
# An unknown route fails on both codecs, with the same error line.
for wire in binary json; do
    if "$ldafp" predict --addr "$eaddr" --wire "$wire" --name nosuch \
        --input "$obs_tmp/train.csv" > /dev/null 2> "$net_tmp/nosuch.$wire"; then
        echo "predict --name nosuch over $wire exited 0" >&2; exit 1
    fi
done
grep -q "unknown model 'nosuch'" "$net_tmp/nosuch.binary" \
    || { echo "predict --name nosuch did not name the route" >&2; exit 1; }
cmp "$net_tmp/nosuch.binary" "$net_tmp/nosuch.json" \
    || { echo "the unknown-route error differs between codecs" >&2; exit 1; }
printf '\x00\x00\x00\x12{"op": "shutdown"}' > "/dev/tcp/${eaddr%:*}/${eaddr#*:}"
wait "$evented_pid"
for family in lda naive-bayes os-elm; do
    for wire in binary json; do
        cmp "$net_tmp/$family.local" "$net_tmp/$family.evented.$wire" \
            || { echo "evented $wire predictions for $family differ from local" >&2; exit 1; }
    done
done
cmp "$net_tmp/naive-bayes.local" "$net_tmp/reloaded.evented" \
    || { echo "reloaded model served different predictions" >&2; exit 1; }
cmp "$net_tmp/naive-bayes.local" "$net_tmp/reloaded.evented.json" \
    || { echo "reloaded model served different predictions over JSON" >&2; exit 1; }
"$ldafp" trace-check --input "$net_tmp/net.ndjson" > /dev/null
for event in net.listen net.accept net.batch net.reload net.close net.shutdown; do
    grep -q "\"event\":\"$event\"" "$net_tmp/net.ndjson" \
        || { echo "missing $event in evented trace" >&2; exit 1; }
done
# Every dispatch reports how long its oldest request queued.
if grep '"event":"net.batch"' "$net_tmp/net.ndjson" | grep -v '"queue_wait_us":[0-9]' > /dev/null; then
    echo "a net.batch event lacks queue_wait_us" >&2; exit 1
fi

# Throughput + overload gate, a release-mode test: it fails unless the
# binary codec reaches >= 2x the JSON codec on the same server at 16
# clients, the shedder engages under overload, and every admitted reply
# equals the in-process predict_batch.
cargo test --release -q -p ldafp-bench --test net_gate

# Kernel datapath (`ldafp-kernels`): unit tests + the bit-equivalence
# proptests (every KernelKind vs the traced mac_dot_traced reference, all
# rounding modes: the served word, and the 0/1 overflow flag against the
# traced exact sum of the rounded products leaving the word range), the
# scalar-fallback build and its tests (--no-default-features drops the
# intrinsic path, must still compile under forbid(unsafe_code), and is
# where KernelKind::best() resolves to the reference kernel), and the
# throughput gate, a release-mode test that asserts every kernel's words
# and flags equal the traced reference's, then fails unless the best
# kernel clears 2x one call per row of the per-step wrapping loop the gate
# keeps as its baseline, at the paper's F=42 / batch=256 shape, and unless
# the batch quantizer (push_rows_scaled, words and saturated counts first
# checked against the per-row path) clears 1.5x one push_row_f64 call per
# row on 20,000 shuffled 42-feature rows. The
# cross-family serve/net equivalence suite rides the ldafp-net loopback
# tests above.
cargo test -q -p ldafp-kernels
cargo test -q -p ldafp-kernels --test proptests
cargo build -q -p ldafp-kernels --no-default-features
cargo test -q -p ldafp-kernels --no-default-features
cargo test --release -q -p ldafp-bench --test kernels_gate
# The fused slice quantizer every f64 row takes into the kernels lives
# in `ldafp-fixedpoint`; lint it beside them.
cargo clippy -p ldafp-fixedpoint --all-targets -- -D warnings
cargo clippy -p ldafp-kernels --all-targets -- -D warnings

# Benchmark smoke: both workloads at --quick scale, built offline from
# this checkout (the benchmark crate is its own workspace and needs no
# registry).
cargo test --release --offline --manifest-path benchmark/Cargo.toml

# API docs, warnings promoted to errors, so a removed or private item
# leaves no dangling intra-doc link.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

# Whole-workspace lint, warnings promoted to errors.
cargo clippy --workspace --all-targets -- -D warnings
