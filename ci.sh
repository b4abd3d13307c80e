#!/usr/bin/env bash
# CI gate for the P4DB reproduction workspace.
#
# Everything here must pass on a machine with NO network access: the
# workspace deliberately has zero external dependencies (see README.md), so
# every cargo invocation runs with --offline.
set -euo pipefail
cd "$(dirname "$0")"

# ROADMAP items 4 and 10's size measures, reported on every run (no
# threshold): non-test lines of core + txn + storage, of crates/bench and of
# all of crates/, each file counted up to its first column-0 #[cfg(test)].
non_test_lines() {
    for f in $(git ls-files "$@"); do
        awk '/^#\[cfg\(test\)\]/{exit} {c++} END{print c+0}' "$f"
    done | awk '{s+=$1} END{print s}'
}
CORE_LINES=$(non_test_lines 'crates/core/*.rs' 'crates/txn/*.rs' 'crates/storage/*.rs')
BENCH_LINES=$(non_test_lines 'crates/bench/*.rs')
CRATES_LINES=$(non_test_lines 'crates/*.rs')
echo "==> size: non-test lines: core + txn + storage $CORE_LINES, crates/bench $BENCH_LINES, crates/ $CRATES_LINES"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (workspace, all targets, warnings are errors; the workspace lints deny unsafe outside p4db_common::prefetch)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> tier-1 verify: cargo build --release && cargo test -q (its doctests are the README's code blocks)"
cargo build --offline --release
cargo test --offline -q

echo "==> member-crate unit tests and doctests (root package already covered by tier-1)"
cargo test --offline --workspace --exclude p4db -q

echo "==> chaos smoke gate: fixed-seed fault + crash paths (incl. 2-switch per-switch crash/recovery, supervised blackhole outage liveness) with invariant checking, a report's repro line naming its test and seed, and that repro form run: CHAOS_SEED=5 on the SmallBank sweep runs exactly one scenario"
cargo test --offline --release -q --test chaos smoke_ -- --nocapture
# The command a failing report prints: a broken seed filter runs the whole
# sweep (or nothing), and the count below catches either.
CHAOS_REPRO_OUT="$(pwd)/target/chaos_repro.txt"
CHAOS_SEED=5 cargo test --offline --release --test chaos chaos_sweep_smallbank_with_faults -- --exact --nocapture > "$CHAOS_REPRO_OUT"
awk '/^chaos scenario: / { n++; if ($3 != "smallbank" || $5 != "5:") bad = 1; print "    " $0 }
     END { if (n != 1 || bad) { print "CHAOS_SEED=5 must run exactly one scenario, smallbank seed 5 (ran " n + 0 ")"; exit 1 } }' "$CHAOS_REPRO_OUT"

echo "==> batching gate: whole-frame faults at batch_size=16 (full differential sweep runs in tier-1)"
cargo test --offline --release -q --test batching batched_chaos -- --nocapture

echo "==> pool gate: an executor drains its fair share of the submission queue (channel share rule, 8 queued jobs on 8 executors finish in one round trip, a single executor still drains whole batches in order)"
cargo test --offline --release -q -p p4db-core -p p4db-common -- recv_share queued_jobs_spread_over_idle_executors a_single_executor_drains_the_whole_queue_in_order

echo "==> driver gate: one load driver (a count stop settles exactly n per session at windows 1 and 4, a timed stop cancels retry loops and reports its measured span, each drive on a cluster draws the seed stream of its call index) and one read-only conversion (both arms draw the same footprints, a zero fraction leaves the stream untouched)"
cargo test --offline --release -q -p p4db-core -p p4db-workloads -- a_txns_stop_settles_exactly_n_per_session_at_windows_1_and_4 a_timed_stop_cancels_retry_loops_and_measures_its_span each_drive_on_a_cluster_draws_the_stream_of_its_call_index both_arms_draw_the_same_footprints_and_only_the_snapshot_arm_marks_them a_zero_fraction_leaves_the_inner_stream_untouched

echo "==> session gate: one reply queue per session (a dropped ticket's statistics still count, a batchmate's retry does not hold committed replies, a parked waiter is woken only by its own ticket, the channel's wake rule under stress), node-local snapshot reads on the caller's thread (answered before submit returns, remote-home and switch-resident reads still pooled, a dropped inline read's statistics still count, a dropped cluster refuses reads), snapshot slots given back by dropped readers, allocations per session round trip"
cargo test --offline --release -q -p p4db-core -p p4db-common -p p4db-storage -- a_dropped_tickets_statistics_still_count a_batchmates_retry_does_not_hold_committed_replies a_parked_waiter_is_woken_only_by_its_own_ticket wake_rule_stress a_node_local_snapshot_read_is_answered_before_submit_returns remote_and_switch_resident_reads_still_go_to_the_pool a_dropped_inline_reads_statistics_still_count a_read_after_the_cluster_is_dropped_is_disconnected dropped_sessions_give_their_snapshot_slots_back a_dropped_slot_is_handed_to_the_next_registration
cargo test --offline --release -q --test session_alloc

echo "==> round-trip gate: one node round trip per participant, not per remote operation (4 remote ops = 2 RTTs and 4 messages, 2 participants asked concurrently, snapshot read = 1 RTT, remote NO_WAIT abort = 1 RTT with no lock leaked, Chiller late set = 1 more RTT)"
cargo test --offline --release -q -p p4db-txn -p p4db-net -- round_trip participant

echo "==> switch gate: the pipeline runs on the delivering thread (a frame is answered before its send returns, no frame is stranded behind a busy pipeline, a reply addressed to the switch itself is ignored, the fabric pumps on every delivery and on no undelivered message), the audit order and replies of a serial script match those recorded from the threaded engine, and the 1-switch vs 2-switch differential"
cargo test --offline --release -q -p p4db-switch -p p4db-net -- a_frame_is_answered_before_its_send_returns no_frame_is_stranded_behind_a_busy_pipeline a_reply_addressed_to_the_switch_itself_is_ignored a_serial_script_keeps_its_audit_order_and_replies every_delivery_to_a_pumped_endpoint_runs_its_pump_after_queueing undelivered_messages_do_not_pump_and_released_ones_do
cargo test --offline --release -q --test topology topology_differential_smallbank -- --nocapture

echo "==> lock gate: the lock lives in the row (under 8 threads never two exclusive holders of a row, shared holders count up and down, a retired row conflicts, WAIT_DIE lets an older requester wait and kills a younger or equal one, a saturated shared count conflicts), the row index against a std map model (collisions, wrap-around, growth, backward-shift removal), admission (no map entry for a key with a row, a row inserted between the two probes is row-locked too, neither prefetch pass — slot or row — takes a lock, keeps a handle, inserts a row or grows the index, the prefetch passes add no acquisition), the insert lifecycle (a row inserted by an open transaction is locked to others, an aborted insert's row cannot be locked, an insert over a live key retires the old row, each tuple locked once in its strongest mode), and fixed serial YCSB/SmallBank/TPC-C runs logging the recorded WAL"
cargo test --offline --release -q -p p4db-storage -p p4db-txn -- no_wait_under_concurrency_never_grants_conflicting_row_locks shared_row_holders_count_up_and_down a_retired_row_conflicts_under_both_schemes under_wait_die_an_older_row_requester_waits under_wait_die_a_shared_row_remembers_its_oldest_owner a_saturated_shared_count_conflicts_instead_of_overflowing property_the_row_index_matches_a_map_model admit_locks_and_resolves_in_one_step a_row_inserted_between_the_two_probes_is_row_locked_too a_prefetch_takes_no_lock_and_resolves_nothing the_prefetch_pass_adds_no_acquisition a_row_inserted_by_an_open_transaction_is_locked_to_others the_row_of_an_aborted_insert_cannot_be_locked an_insert_over_a_live_key_retires_the_old_row a_footprint_locks_each_tuple_once_in_its_strongest_mode
cargo test --offline --release -q --test wal_identity

echo "==> recovery gate: fixed-seed checkpoint+tail vs genesis restart, torn-checkpoint fallback, fuzzy-checkpoint crash, a checkpointed restart leaving ambiguous tuples alone (full 12x3 sweep runs in tier-1); a switch rebuild's divergence check reports a register changed behind the log's back but not an in-flight intent's closure; a segment sequence starting above the fence is missing segments; supervision passes and control ports leave the fabric registry as they found it"
cargo test --offline --release -q --test durability smoke_recovery_ -- --nocapture
cargo test --offline --release -q -p p4db-core -p p4db-storage -p p4db-net -- the_divergence_check_reports_an_unlogged_change_but_not_an_in_flight_closure a_sequence_starting_above_the_fence_is_missing_segments supervision_passes_leave_the_fabric_registry_as_they_found_it a_control_port_is_no_node_and_unregisters_when_dropped

echo "==> mvcc gate: snapshot-vs-2PL differential sweep, zero-lock read path, GC safety, doctored-chain detection (folded chains included), the fold-at-install reference model (property_fold_at_install_matches_the_reference_model), the 72 B Row size budget (a_row_stays_within_its_size_budget), a write-only stream retaining only its log (mvcc_memory), and an inserted row retaining at most 128 B of heap (row_memory)"
cargo test --offline --release -q --test mvcc -- --nocapture
cargo test --offline --release -q --test mvcc_memory a_write_only_stream_retains_its_log_and_no_versions
cargo test --offline --release -q --test row_memory an_inserted_row_retains_at_most_128_bytes_of_heap

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

echo "==> examples"
cargo run --offline --release --example quickstart
cargo run --offline --release --example client_api
cargo run --offline --release --example smallbank_recovery
cargo run --offline --release --example tpcc_warm
cargo run --offline --release --example chaos_drill

echo "ci.sh: all green"
