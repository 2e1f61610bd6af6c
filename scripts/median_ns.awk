# Normalizes the vendored criterion stub's bench lines,
#     <name padded to 40>  median <value> <unit>
# with unit one of ns / µs / ms / s, to "<name> <median in ns>" (-1 for
# an unknown unit). The perf gates in scripts/ci.sh and the snapshot
# writer scripts/bench_snapshot.sh read their medians through it.
function to_ns(value, unit) {
    if (unit == "ns") return value
    if (unit == "µs" || unit == "us") return value * 1e3
    if (unit == "ms") return value * 1e6
    if (unit == "s")  return value * 1e9
    return -1
}
$2 == "median" && NF >= 4 { printf "%s %.3f\n", $1, to_ns($3, $4) }
