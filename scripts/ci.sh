#!/usr/bin/env bash
# Tier-1 CI gate: release build, full test suite, and a smoke pass over the
# kernel benches (criterion `--test` mode runs each bench once, so bench
# code rot is caught without paying for a real measurement run).
# Tier-2 gate: the serving layer's integration tests in release and the
# live_service example, which fails on any dropped read. Between them,
# perfbench (the end-to-end benchmark package) builds and self-tests.
#
# Usage: scripts/ci.sh
# Runs offline (the workspace vendors all dependencies).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release --offline

echo "== tests =="
cargo test --offline -q

echo "== docs build without warnings =="
# Every rfidraw* package's rustdoc builds with warnings denied, so a link
# to a deleted or private item, or a citation like [12] read as a link,
# fails here instead of shipping a dead link. The vendored stand-ins
# under vendor/ are left out.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps -q \
    -p rfidraw -p rfidraw-bench -p rfidraw-channel -p rfidraw-core \
    -p rfidraw-handwriting -p rfidraw-metrics -p rfidraw-net \
    -p rfidraw-protocol -p rfidraw-recognition -p rfidraw-serve \
    -p rfidraw-simd -p rfidraw-touch

echo "== core suite in release (vectorized kernels) =="
# The tracer's blocked tick kernel, the libm-free nearest-integer fold and
# the vote sweeps' AVX2 copies vectorize only at opt-level 3, while the
# suite above builds at opt-level 1, so the sweep kernels' suite (each
# AVX2 copy bit-identical to its baseline copy) and the core suite run
# again in release. By name: the fold must equal |x - x.round()| bit for
# bit (edge list + raw-bit proptest); the tick kernel must pick the same
# point with the same vote bits as the one-point-at-a-time per-pair
# reference step; every tile bound of the branch-and-bound tick must hold
# every lane's vote; and on a seeded noisy stream the tick must score at
# most its pinned share of the tiles, so a bound that stops pruning fails.
cargo test --release --offline -q -p rfidraw-simd
cargo test --release --offline -q -p rfidraw-core
cargo test --release --offline -q -p rfidraw-core --test kernel_equivalence \
    frac_dist_to_integer_matches_round_form
cargo test --release --offline -q -p rfidraw-core --test kernel_equivalence \
    trace_step_
cargo test --release --offline -q -p rfidraw-core --lib \
    trace::tests::tile_bounds_hold_every_lane_vote
cargo test --release --offline -q -p rfidraw-core --lib \
    trace::tests::noisy_ticks_score_a_bounded_share_of_tiles
# Sparse acquisition, by name: stage 2 scores only the stage-1 filter's
# kept fine cells (through the gathers' vectorized AVX2 copies when the
# fine table is built) and picks peaks in k passes, and every kept cell,
# vote and candidate must equal the dense reference (full masked map plus
# the sort-based peak pick) bit for bit.
cargo test --release --offline -q -p rfidraw-core --test sparse_acquisition \
    sparse_acquisition_matches_dense_reference
# The quiet-read predicate the serving layer applies reads inline by: a
# batch it calls quiet must never emit or move the estimate (random
# hostile streams and batch splits), and it must keep calling most reads
# of a clean stream quiet.
cargo test --release --offline -q -p rfidraw-core --test quiet_reads \
    quiet_batches_never_emit_or_move_the_estimate
cargo test --release --offline -q -p rfidraw-core --test quiet_reads \
    clean_stream_is_mostly_quiet

echo "== paper-metric regression gate (fig11/fig12, f64 vs i16) =="
# Re-runs the fig. 11 trajectory CDF and fig. 12 initial-position CDF at
# reduced scale under the f64 and quantized-i16 table precisions.
# Fails when the f64 median/p90 drifts >2% from
# results/paper_metrics_baseline.txt or the i16 median/p90 degrades >2%
# versus the f64 run.
cargo test --release --offline -q -p rfidraw-bench --test paper_metrics

echo "== bench smoke (kernels, --test mode) =="
cargo bench --offline --bench kernels -- --test

echo "== perf sanity: pair-major engine vs reference path, i16 vs f64 =="
# Two gates on the dense 1 cm grid: (a) the pair-major table kernel must
# not be slower than the table-free reference evaluation (the engine is
# ~2.5x faster in steady state; the generous 1.1x allowance only trips on
# a real regression, not on noise), and (b) the quantized i16 kernel must
# beat the f64 serial engine by at least 1.56x: the quarter-width table
# plus the fused dual-column sweep is the point of quantizing at all.
# 1.56 is the product of the two gates it replaces (f32 >= 1.2x f64 and
# i16 >= 1.3x f32), so it is no looser. Since the f64 sweep runs its AVX2
# copy too, 12 runs on a 2-vCPU VM measured 2.8x (median; 2.0x at the
# lowest), down from about 5x with the f64 sweep on the baseline target.
perf_out=$(cargo bench --offline --bench kernels -- 1cm 2>/dev/null | grep ' median ')
echo "$perf_out"
echo "$perf_out" | awk -f scripts/median_ns.awk | awk '
    { m[$1] = $2 }
    END {
        if (!("vote_reference_1cm" in m) || !("engine_1cm_serial" in m) \
            || !("engine_1cm_i16" in m)) {
            print "perf sanity: expected benches missing from output" > "/dev/stderr"
            exit 1
        }
        ratio = m["engine_1cm_serial"] / m["vote_reference_1cm"]
        printf "perf sanity: engine/reference time ratio %.2f (must be < 1.10)\n", ratio
        i16 = m["engine_1cm_serial"] / m["engine_1cm_i16"]
        printf "perf sanity: i16/f64 engine speedup %.2fx (must be >= 1.56)\n", i16
        exit (ratio < 1.10 && i16 >= 1.56) ? 0 : 1
    }
'

echo "== perf sanity: binary vs JSON wire framing =="
# The point of wire v3 is cheaper frames: the server-side decode path
# (framing + payload decode + validation + ingest + drain) for the same
# 4096-read/64-session load must run at least 1.5x faster over binary
# frames than over newline-JSON. Measured margin is several-fold, so the
# gate only trips on a real regression.
wire_out=$(cargo bench --offline --bench kernels -- serve_wire 2>/dev/null | grep ' median ')
echo "$wire_out"
echo "$wire_out" | awk -f scripts/median_ns.awk | awk '
    { m[$1] = $2 }
    END {
        if (!("serve_wire_json_4096_reads_64_sessions" in m) \
            || !("serve_wire_binary_4096_reads_64_sessions" in m)) {
            print "wire sanity: expected benches missing from output" > "/dev/stderr"
            exit 1
        }
        speedup = m["serve_wire_json_4096_reads_64_sessions"] \
            / m["serve_wire_binary_4096_reads_64_sessions"]
        printf "wire sanity: binary vs JSON ingest speedup %.2fx (must be >= 1.50)\n", speedup
        exit (speedup >= 1.50) ? 0 : 1
    }
'

echo "== perfbench: build and self-test =="
# The end-to-end benchmark is a package of its own outside the workspace
# that builds the serving stack from these crates by path. Building it
# and running its tiny-scale self-test here makes a change to an API it
# uses (`exec::Parallelism`, `ServeConfig`, `TelemetryReport`) fail in
# CI, not only when the benchmark next runs.
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "== tier 2: serving layer =="
# Integration tests in release (the determinism assertions compare bit
# patterns, so they must hold under optimization too), then the live
# multi-session example, which exits nonzero if the lossless ingest path
# dropped or rejected a single read (or if the injected stale-gap anomaly
# fails to produce a flight-recorder dump).
cargo test --release --offline -q -p rfidraw-serve
# The shared-table guarantee, by name: 8 concurrent sessions over one
# deployment build exactly one coarse and one fine vote table between them.
cargo test --release --offline -q -p rfidraw-serve --test table_cache
# The suite that runs the core emit sites with a sink installed, by name:
# positions stay bit-identical with tracing off, on and sampled across
# worker counts; core events reach the service recorder under their
# session's id; and each stale reset and degradation the telemetry
# counts is recorded as exactly one anomaly.
cargo test --release --offline -q -p rfidraw-serve --test trace_observability
cargo run --release --offline -p rfidraw --example live_service > /dev/null

echo "== tier 2: fault injection =="
# Every hostile-input class (NaN/infinite fields, clock steps, duplicates,
# reordering, per-antenna blackouts, truncated frames, the malformed-frame
# corpus) against 8 concurrent sessions: no panics, bit-identical results
# vs standalone trackers, exact telemetry conservation. The corpus file
# must exist and stay non-trivial (each line is one hostile frame).
test -s crates/rfidraw-serve/tests/corpus/malformed_frames.jsonl
corpus_lines=$(grep -cv '^[[:space:]]*$' crates/rfidraw-serve/tests/corpus/malformed_frames.jsonl)
if [ "$corpus_lines" -lt 20 ]; then
    echo "malformed-frame corpus shrank to $corpus_lines lines" >&2
    exit 1
fi
cargo test --release --offline -q -p rfidraw-serve --test fault_injection
cargo test --release --offline -q -p rfidraw-channel faults
# The binary-framing corpus (wire v3): truncated/oversized/bad-magic
# frames and mid-frame disconnects against the reactor front end.
test -s crates/rfidraw-serve/tests/corpus/malformed_binary_frames.txt
cargo test --release --offline -q -p rfidraw-serve --test binary_frames

echo "== tier 2: reactor front end =="
# Bit-identity of TCP serving against standalone trackers, the
# connection lifecycle, and — by name — the JSON/binary equivalence gate:
# the same ingest over wire v2 and wire v3 across 8 mixed-protocol
# sessions must produce bit-identical position streams and conserving
# telemetry.
cargo test --release --offline -q -p rfidraw-serve --test reactor_service
cargo test --release --offline -q -p rfidraw-serve --test reactor_service \
    mixed_protocol_sessions_are_equivalent_and_conserve

echo "== tier 2: backpressure parking =="
# The reactor-stall regression and the parking lifecycle (DESIGN.md §13):
# a parked Block connection must not stall other connections, re-admission
# must preserve order bit-for-bit, and mid-park teardown (peer or session)
# must leave the parked_reads = readmissions + parked_rejected +
# parked_discarded books exact. The stall test is also run by name so a
# filter change can never silently drop the headline regression.
cargo test --release --offline -q -p rfidraw-serve --test backpressure_parking
cargo test --release --offline -q -p rfidraw-serve --test backpressure_parking \
    blocked_session_does_not_stall_other_connections

echo "== tier 2: event-driven serving =="
# The ready queue and pushed updates (DESIGN.md §7, §13), by name: the
# seeded ready-queue stress run (64 sessions, 2-read queues, 1-read
# drains, 2 and 4 workers, lossless `Block` admission only) must finish
# before its watchdog deadline with exact books and bit-identical
# results; with no workers, a producer that overflows its queue must
# drain it itself and return, with exact books and bit-identical
# positions; `Closed` must stay a subscriber's last event when the close
# lands mid-drain; and a finished update must reach a reactor subscriber
# with no further traffic, on a reactor wakeup. Quiet reads applied inline by
# the thread that schedules their session: one-read ingests over 8
# sessions must stay bit-identical with exact shard books and mostly
# inline under workers, and never inline under manual pumping; a quiet
# drain facing a busy engine must leave the reads queued and the
# session runnable.
cargo test --release --offline -q -p rfidraw-serve --test service_local \
    ready_queue_stress_keeps_results_and_books_exact
cargo test --release --offline -q -p rfidraw-serve --test service_local \
    manual_mode_producer_drains_its_own_overflow
cargo test --release --offline -q -p rfidraw-serve --test service_local \
    closed_stays_last_when_the_close_lands_mid_drain
cargo test --release --offline -q -p rfidraw-serve --test reactor_service \
    updates_are_pushed_without_further_traffic
cargo test --release --offline -q -p rfidraw-serve --test service_local \
    one_read_ingests_apply_quiet_reads_inline
cargo test --release --offline -q -p rfidraw-serve --lib session::tests::drain_quiet_

echo "CI OK"
