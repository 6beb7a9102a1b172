#!/usr/bin/env bash
# Gate the wall-clock harness in CI on numbers that repeat exactly on any
# runner — never on times.
#
# Input: the `--out` JSON of
#   wallbench --workload power_warm --quick --trace 1
# Checked on `power_warm`:
#   * no operation failed and every output matched its reference;
#   * the store stayed idle and the buffer held everything (0 GETs a
#     round, hit ratio >= 0.999), so the round is the engine's;
#   * the engine did exactly the metered work and page reads it has done
#     since the harness landed (a kernel that changes either changed the
#     modeled CPU seconds or the scan's I/O, not just its speed);
#   * allocations per page read stay under the ceiling the
#     column-at-a-time kernels set (the row-at-a-time engine: 1 279).
#
# Usage: ci/bench_counts.sh /tmp/pw.json

set -euo pipefail
out="${1:?usage: ci/bench_counts.sh <wallbench --out file>}"

jq -e '
  .workloads.power_warm as $w
  | ($w.metrics | map_values(.value)) as $m
  | ($w.failed == 0 and $w.correct)
    and $m."store_gets_per_round" == 0
    and $m."buffer.hit_ratio" >= 0.999
    and $m."engine.work_units_per_round" == 57428790
    and $m."engine.scan_pages_read_per_round" == 6551
    and $m."proc.allocs_per_page_read" <= 320
' "$out" >/dev/null || {
    echo "bench_counts: power_warm counters out of bounds:" >&2
    jq '.workloads.power_warm
        | {failed, correct}
          + (.metrics | with_entries(select(.key | IN(
              "store_gets_per_round", "buffer.hit_ratio",
              "engine.work_units_per_round", "engine.scan_pages_read_per_round",
              "proc.allocs_per_page_read"))) | map_values(.value))' "$out" >&2
    exit 1
}
echo "bench_counts: power_warm counters hold"
