#!/usr/bin/env bash
# Runs the kernel benches and writes a machine-readable snapshot, labelled
# with the output file's name: median ns/iter per kernel plus derived
# throughput numbers (reads/sec through the serving layer up to 10k
# sessions, binary vs JSON wire framing, healthy throughput alongside a
# connection parked by lossless admission, engine vs reference, and
# quantized i16 vs f64 engine speedup). Records nproc, since the engine
# numbers here are serial but serving-layer numbers depend on core count,
# and the CPU model, since two snapshots compare only when they come from
# the same kind of host.
#
# Usage: scripts/bench_snapshot.sh <output.json>
#
# The output path is required, so a run never overwrites a committed
# BENCH_NN.json snapshot by default.
#
# The vendored criterion stub prints one line per bench:
#     <name padded to 40>  median <value> <unit>  min …  mad …  n <samples>
# with unit one of ns / µs / ms / s; scripts/median_ns.awk reads the
# median from the first four fields and normalizes it to nanoseconds.

set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
    echo "usage: $0 <output.json>" >&2
    exit 2
fi
OUT="$1"
LABEL="$(basename "$OUT" .json)"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

cargo bench --offline --bench kernels 2>&1 | tee "$RAW" >&2

# The first "model name" line of /proc/cpuinfo, with the characters a JSON
# string cannot hold unescaped removed; "unknown" where there is none.
CPU_MODEL="$(awk -F': *' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null \
    | tr -d '"\\' || true)"
CPU_MODEL="${CPU_MODEL:-unknown}"

awk -f scripts/median_ns.awk "$RAW" \
    | awk -v nproc="$(nproc 2>/dev/null || echo 1)" -v cpu_model="$CPU_MODEL" \
        -v label="$LABEL" '
    $2 >= 0 {
        medians[$1] = $2
        order[n++] = $1
    }
    END {
        printf "{\n"
        printf "  \"snapshot\": \"%s\",\n", label
        printf "  \"unit\": \"ns_per_iter_median\",\n"
        printf "  \"nproc\": %d,\n", nproc
        printf "  \"cpu_model\": \"%s\",\n", cpu_model
        printf "  \"kernels\": {\n"
        for (i = 0; i < n; i++) {
            name = order[i]
            printf "    \"%s\": %.1f%s\n", name, medians[name], (i < n - 1 ? "," : "")
        }
        printf "  },\n"
        printf "  \"derived\": {\n"
        sep = ""
        if ("vote_reference_1cm" in medians && "engine_1cm_serial" in medians) {
            printf "%s    \"engine_vs_reference_speedup\": %.2f", sep, \
                medians["vote_reference_1cm"] / medians["engine_1cm_serial"]
            sep = ",\n"
        }
        # The quantized i16 engine vs the f64 serial engine (the CI gate
        # requires >= 1.56x).
        if ("engine_1cm_serial" in medians && "engine_1cm_i16" in medians) {
            printf "%s    \"i16_vs_f64_speedup\": %.2f", sep, \
                medians["engine_1cm_serial"] / medians["engine_1cm_i16"]
            sep = ",\n"
        }
        # serve_ingest benches push their named read count per iteration;
        # the 8-session variant is the paper-style multi-tag load, the
        # 1k/10k variants are the serving-at-scale points.
        if ("serve_ingest_4096_reads_8_sessions" in medians) {
            ns = medians["serve_ingest_4096_reads_8_sessions"]
            printf "%s    \"serve_reads_per_sec_8_sessions\": %.0f", sep, 4096 * 1e9 / ns
            sep = ",\n"
            printf "%s    \"serve_session_drains_per_sec\": %.0f", sep, 8 * 1e9 / ns
        }
        if ("serve_ingest_4096_reads_1024_sessions" in medians) {
            printf "%s    \"serve_reads_per_sec_1024_sessions\": %.0f", sep, \
                4096 * 1e9 / medians["serve_ingest_4096_reads_1024_sessions"]
            sep = ",\n"
        }
        if ("serve_ingest_10240_reads_10240_sessions" in medians) {
            printf "%s    \"serve_reads_per_sec_10240_sessions\": %.0f", sep, \
                10240 * 1e9 / medians["serve_ingest_10240_reads_10240_sessions"]
            sep = ",\n"
        }
        # Wire-framing comparison at 64 sessions: the CI gate requires the
        # binary path to be at least 1.5x the newline-JSON path.
        if ("serve_wire_json_4096_reads_64_sessions" in medians && \
            "serve_wire_binary_4096_reads_64_sessions" in medians) {
            printf "%s    \"binary_vs_json_speedup_64_sessions\": %.2f", sep, \
                medians["serve_wire_json_4096_reads_64_sessions"] / \
                medians["serve_wire_binary_4096_reads_64_sessions"]
            sep = ",\n"
            printf "%s    \"wire_binary_reads_per_sec_64_sessions\": %.0f", sep, \
                4096 * 1e9 / medians["serve_wire_binary_4096_reads_64_sessions"]
        }
        # Healthy-session throughput while one connection sits
        # parked with a stash (the reactor-stall regression as a number:
        # before parking this bench deadlocked).
        if ("serve_block_one_slow_session_256_reads" in medians) {
            printf "%s    \"serve_block_healthy_reads_per_sec\": %.0f", sep, \
                256 * 1e9 / medians["serve_block_one_slow_session_256_reads"]
            sep = ",\n"
        }
        if (sep != "") printf "\n"
        printf "  }\n"
        printf "}\n"
    }
' > "$OUT"

echo "wrote $OUT" >&2
