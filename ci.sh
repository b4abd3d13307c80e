#!/usr/bin/env bash
# CI gate for the P4DB reproduction workspace.
#
# Everything here must pass on a machine with NO network access: the
# workspace deliberately has zero external dependencies (see README.md), so
# every cargo invocation runs with --offline.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (workspace, all targets, warnings are errors)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> tier-1 verify: cargo build --release && cargo test -q"
cargo build --offline --release
cargo test --offline -q

echo "==> member-crate unit tests (root package already covered by tier-1)"
cargo test --offline --workspace --exclude p4db -q

echo "==> chaos smoke gate: fixed-seed fault + crash paths (incl. 2-switch per-switch crash/recovery, supervised blackhole outage liveness) with invariant checking"
cargo test --offline --release -q --test chaos smoke_ -- --nocapture

echo "==> batching gate: whole-frame faults at batch_size=16 (full differential sweep runs in tier-1)"
cargo test --offline --release -q --test batching batched_chaos -- --nocapture

echo "==> pool gate: an executor drains its fair share of the submission queue (channel share rule, 8 queued jobs on 8 executors finish in one round trip, a single executor still drains whole batches in order)"
cargo test --offline --release -q -p p4db-core -p p4db-common -- recv_share queued_jobs_spread_over_idle_executors a_single_executor_drains_the_whole_queue_in_order

echo "==> session gate: one reply queue per session (a dropped ticket's statistics still count, a batchmate's retry does not hold committed replies, a parked waiter is woken only by its own ticket, the channel's wake rule under stress, allocations per session round trip)"
cargo test --offline --release -q -p p4db-core -p p4db-common -- a_dropped_tickets_statistics_still_count a_batchmates_retry_does_not_hold_committed_replies a_parked_waiter_is_woken_only_by_its_own_ticket wake_rule_stress
cargo test --offline --release -q --test session_alloc

echo "==> round-trip gate: one node round trip per participant, not per remote operation (4 remote ops = 2 RTTs and 4 messages, 2 participants asked concurrently, snapshot read = 1 RTT, remote NO_WAIT abort = 1 RTT with no lock leaked, Chiller late set = 1 more RTT)"
cargo test --offline --release -q -p p4db-txn -p p4db-net -- round_trip participant

echo "==> topology gate: 1-switch vs 2-switch differential on one workload (full 12x3 sweep runs in tier-1)"
cargo test --offline --release -q --test topology topology_differential_smallbank -- --nocapture

echo "==> recovery gate: fixed-seed checkpoint+tail vs genesis restart, torn-checkpoint fallback, fuzzy-checkpoint crash, a checkpointed restart leaving ambiguous tuples alone (full 12x3 sweep runs in tier-1)"
cargo test --offline --release -q --test durability smoke_recovery_ -- --nocapture

echo "==> mvcc gate: snapshot-vs-2PL differential sweep, zero-lock read path, GC safety, doctored-chain detection (folded chains included), the fold-at-install reference model (property_fold_at_install_matches_the_reference_model), the Row size budget (a_row_stays_within_its_size_budget), and a write-only stream retaining only its log (mvcc_memory)"
cargo test --offline --release -q --test mvcc -- --nocapture
cargo test --offline --release -q --test mvcc_memory a_write_only_stream_retains_its_log_and_no_versions

echo "==> bench smoke gate: BENCH json emission, schema validity, every point commits, speedup floors"
# Absolute path: cargo runs bench binaries with the package dir as CWD.
# fig_read_mix, fig_switch_scaling, fig_recovery and fig_outage ride along
# so the gate can floor the snapshot-vs-2PL read-mostly speedup, the
# 2-switch-vs-1 topology speedup, the checkpointed-vs-genesis restart
# speedup and the degraded-mode throughput floor across a switch blackhole
# (alongside micro's batching tripwire, a count of transactions per switch
# message). The gate requires every row of json::FLOORS, so dropping one of
# these figures from the list fails it.
BENCH_SMOKE="$(pwd)/target/BENCH_smoke.json"
rm -f "$BENCH_SMOKE"
P4DB_BENCH_JSON="$BENCH_SMOKE" P4DB_MEASURE_MS=25 cargo bench --offline -p p4db-bench --bench figures -- fig01 fig13 fig_read_mix fig_switch_scaling fig_recovery fig_outage > /dev/null
P4DB_BENCH_JSON="$BENCH_SMOKE" P4DB_MICRO_QUICK=1 cargo bench --offline -p p4db-bench --bench micro > /dev/null
P4DB_BENCH_JSON="$BENCH_SMOKE" P4DB_BENCH_GATE=1 cargo test --offline -q -p p4db-bench --lib gate_

echo "==> repo benchmark: unit tests + smoke run (1 round x 1 s and a 2 s traced run per workload, ~1 min: schema, verification rounds, anti-vacuity)"
# benchmark/ is its own workspace, so nothing above sees it.
(cd benchmark && cargo test --offline -q)
REPO_BENCH_SMOKE="$(pwd)/target/benchmark_smoke.txt"
benchmark/run.sh --smoke > "$REPO_BENCH_SMOKE"
# A count, so it holds on a noisy box: a distributed host transaction sends
# one request per participant and one prepare (2.6 messages per transaction
# over the workload's mix; 6.7 when every remote operation had its own).
awk '$1 == "ycsb_contended_host" && $2 == "net.msgs_to_nodes_per_txn" { seen = 1; ok = ($3 < 4); print "    " $0 }
     END { if (!seen || !ok) { print "ycsb_contended_host net.msgs_to_nodes_per_txn must be reported and < 4"; exit 1 } }' "$REPO_BENCH_SMOKE"
# Also a count: with no snapshot reader every commit folds the version it
# displaces, so a written row keeps one version (11 when chains grew to a
# 64-entry cap before they were trimmed).
awk '$1 == "ycsb_cold" && $2 == "storage.mvcc.chain_len_p99" { seen = 1; ok = ($3 <= 1); print "    " $0 }
     END { if (!seen || !ok) { print "ycsb_cold storage.mvcc.chain_len_p99 must be reported and <= 1"; exit 1 } }' "$REPO_BENCH_SMOKE"
# A count too: a warm transaction's hot part rides its share's switch frame
# (~0.8 messages per transaction; 2 when each warm transaction paid its own
# round trip).
awk '$1 == "tpcc_warm" && $2 == "net.msgs_to_switch_per_txn" { seen = 1; ok = ($3 < 1.5); print "    " $0 }
     END { if (!seen || !ok) { print "tpcc_warm net.msgs_to_switch_per_txn must be reported and < 1.5"; exit 1 } }' "$REPO_BENCH_SMOKE"

echo "==> rustdoc: public API docs must build warning-free"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "==> doctests: README + rustdoc examples of the client API"
cargo test --offline --doc -q
cargo test --offline --doc -q --workspace --exclude p4db

echo "==> examples"
cargo run --offline --release --example quickstart
cargo run --offline --release --example client_api
cargo run --offline --release --example smallbank_recovery
cargo run --offline --release --example tpcc_warm
cargo run --offline --release --example chaos_drill

echo "ci.sh: all green"
