#!/usr/bin/env bash
# Gate the wall-clock harness in CI on numbers that repeat exactly on any
# runner — never on times.
#
# Input: the `--out` JSON of
#   wallbench --workload <power_warm|scan_cold|ingest|txn_churn|all> --quick [--trace 1]
# Checked on every workload: no operation failed and every output matched
# its reference.
#
# An untraced run reports the end-to-end metrics; of those, the stored
# bytes per raw user byte repeat exactly, so each workload's is an
# equality. A sealed page image is header + payload and nothing more, and
# only a block device pads, so tail padding creeping back into objects
# fails here (it would add 38 % on TPC-H and 50 % on `txn_churn`).
# `scan_cold`'s log store has been seen one byte longer in one run of
# several (group-commit batching), so it gets a band of 1e-7: one byte
# moves the ratio by 8e-9, padding by 0.07. `txn_churn`'s store PUTs per
# MiB written repeat exactly too, and are an equality (see below).
# Re-pinned when evicted pages started leaving in composites:
#   * `scan_cold` 0.18964 -> 0.18971: its load's evicted pages are composite
#     members now, and the blockmap leaves that hold their ranged locators
#     compress a little worse;
#   * `ingest` 0.18691 -> 0.18670: eviction groups of neighbouring pages die
#     whole under the refreshes and are reclaimed, and compaction rewrites
#     the rest (31 members a round, 8 before).
# Re-pinned when float pages with at most 256 distinct values started
# taking a page dictionary with n-bit codes instead of raw 8-byte values
# (on TPC-H, `l_discount` and `l_tax`: 32 773 -> 2 151 / 2 135 body bytes a
# page); request counts did not move:
#   * `power_warm` 0.18971 -> 0.16310, `scan_cold` 0.18971 -> 0.16311,
#     `ingest` 0.18670 -> 0.16010; `txn_churn` has no float pages.
#
# A traced run reports the per-layer metrics. On the two workloads that
# run the plans:
#   * the engine did exactly the metered work and page reads it has done
#     since the harness landed (a kernel or a plan that changes either
#     changed the modeled CPU seconds or the scan's I/O, not just its
#     speed).
# And on `power_warm` (Q1-Q22, everything buffered):
#   * the store stayed idle and the buffer held everything (0 GETs a
#     round, hit ratio >= 0.999), so the round is the engine's;
#   * allocations stay under two ceilings, each about 10 % above what
#     three traced `--quick` runs read once joins and groupings over dense
#     keys indexed an array instead of a hash table: <= 15.2 allocations
#     per page read (13.86 in each of three runs; 17.13 with the hashed
#     tables, 17.41 / 17.40 / 17.40 with a separate prefetch pass, 21.63
#     while every decoded string was an `Arc<str>` clone, 1 279 for the
#     row-at-a-time engine) and <= 487 MiB allocated a round
#     (442.6 / 442.6 / 442.7; 568.2 with the hashed tables, 612.0 with
#     `Arc<str>` string columns, whose 16-byte values are now 4-byte codes). The
#     count is what the round does — the fewer heap blocks a phase asks
#     for, the less it costs — so a kernel that starts allocating per
#     value or per morsel again fails here, not in a timing.
# `scan_cold` (Q6 / Q14 / Q15 / Q19 after a restart) is the second
# workload that runs the plans; its store GETs a round are an equality
# (624: pass A's ranged GETs, pass B sends none). The OCM holds the whole
# working set, caches a miss before the read returns, and the buffer loads
# each page once, so the count does not depend on which lane reads first.
# It read 624 in 16 of 16 traced runs, 10 of them two at a time on two
# cores; it was ungated while OCM population ran on a background worker.
# Its allocations stay under a ceiling about 10 % above what three traced
# `--quick` runs read once a scan's `col op literal` conjuncts ran on the
# encoded pages and a column only the predicate reads stopped being
# decoded: <= 40.7 MiB allocated a round (36.97 in each of three runs;
# 58.03 while every predicate input was decoded into a column first).
# The OCM evicts nothing (`ocm.evictions` == 0, here and on `ingest`):
# eviction order is the only thing its admission policy decides, so a
# workload that starts evicting from the OCM is one whose results that
# policy can move, and it fails here until it is looked at.
# `ingest` (load, two RF1 + RF2 pairs, GC, compaction, restart):
#   * exactly 52 data-store PUTs a round. The load is larger than the
#     buffer and its evicted pages leave in composites of up to 16 (372
#     PUTs when each evicted page was an object of its own, 1 900 when a
#     refresh rewrote `orders` and `lineitem` whole). The count was a
#     ceiling (<= 56) while an OCM thread uploaded evicted pages in the
#     background; since the upload runs on the thread that evicts, 9 of 9
#     traced runs read 52, four of them two at a time on two cores.
#   * <= 600 scanned pages a round (346 measured; 2 554 when a refresh
#     rewrote both tables whole).
#   * <= 515 allocations per page read. On `ingest` this is the round's
#     heap allocations over its 450 page reads, and the bulk load makes
#     most of them. Three traced runs read 467.93 / 467.95 / 467.94
#     (ceiling: about 10 % above) once the load stopped allocating per
#     row for anything but a large-domain string; it read 3 821 while
#     every row was a fresh `Vec<Value>` of fresh `Arc<str>`s and the
#     dictionary copied each new string again.
# Its bytes are gated exactly. An eviction group is its victim's aligned
# run of pages, whichever member is the victim, and a commit's head
# groups draw their object keys in group order however many lanes write
# them, so the objects, and the blockmap nodes that name them, repeat:
#   * bytes written per user byte (0.1873; 0.2172 while float pages were
#     raw, 0.2110 before eviction groups, whose half-dead composites
#     compaction now rewrites) and the stored / raw ratio of sealed pages
#     (0.9671; 0.7367 while float pages were raw — a dictionary page is
#     already dense, so LZ gains little on it, and the 8-byte floats that
#     compressed well are gone from both sides of the ratio; 0.7157
#     before: the data compresses, now that no padding pushes the ratio
#     above 1).
# `txn_churn` (one committer: 4-page transactions, GC, snapshots,
# checkpoints, restarts) repeats exactly, so all of its gates but one are
# equalities:
#   * 3 000 data-store PUTs: one composite a commit, which carries the
#     commit's blockmap nodes (8 971 when each node was an object of its
#     own; 3 003 while each snapshot also uploaded a retention-FIFO copy);
#   * store PUTs per MiB written, log batches included (64.16, untraced;
#     64.224 with the FIFO copies and the key ranges they allocated,
#     127.91 with a PUT per node);
#   * stored bytes per user byte, untraced (1.96256 since log batches are
#     binary — length-prefixed records of varints instead of JSON: a
#     4-page commit's log object averages 131 bytes, 298 as JSON; 1.96795
#     with JSON batches; 5.4398 while a checkpoint carried neither the
#     composite registry nor the GC chain — every composite resident at a
#     checkpoint leaked across the reopen — and the log store kept every
#     batch the instance ever wrote);
#   * at most 2 log GETs at reopen, traced: the checkpoint is a complete
#     recovery base and the log is cut behind it, so reopen reads one log
#     object whatever the history length (1 006 / 2 012 / 3 018 by epoch
#     when the log was never cut);
#   * bytes written per user byte and the stored / raw ratio;
#   * allocations, under two ceilings about 10 % above what three traced
#     `--quick` runs read once a commit stopped re-serialising the catalog
#     and its log record as JSON and a composite's members were sealed
#     straight into one reused assembly buffer: <= 445 MiB allocated a
#     round (403.2 in each of three runs; 1 127 before) and <= 295
#     allocations per page read (268.37 / 268.36 / 268.37; 1 060 before).
# These byte gates pin the length of each page's compressed stream; the
# stream itself is pinned by crates/iq-storage/tests/codec_oracle.rs.
#
# Usage: ci/bench_counts.sh /tmp/pw.json [/tmp/sc.json /tmp/in.json /tmp/tc.json ...]

set -euo pipefail
[[ $# -ge 1 ]] || {
    echo "usage: ci/bench_counts.sh <wallbench --out file>..." >&2
    exit 2
}

gate() { # file workload jq-condition over $m, the metric values
    jq -e --arg w "$2" '
      .workloads[$w] as $w
      | ($w.metrics | map_values(.value)) as $m
      | ($w.failed == 0 and $w.correct) and ('"$3"')
    ' "$1" >/dev/null || {
        echo "bench_counts: $2 counters out of bounds:" >&2
        jq --arg w "$2" '.workloads[$w]
            | {failed, correct}
              + (.metrics | with_entries(select(.key | IN(
                  "store_gets_per_round", "buffer.hit_ratio",
                  "engine.work_units_per_round", "engine.scan_pages_read_per_round",
                  "proc.allocs_per_page_read", "proc.alloc_mib_per_round",
                  "objectstore.puts",
                  "objectstore.bytes_written_per_user_byte",
                  "storage.compression_ratio", "store_bytes_per_user_byte",
                  "store_puts_per_user_mib", "core.reopen_log_gets",
                  "ocm.evictions")))
                | map_values(.value))' "$1" >&2
        exit 1
    }
    echo "bench_counts: $2 counters hold"
}

check() { # file workload untraced-condition traced-condition
    jq -e --arg w "$2" '.workloads | has($w)' "$1" >/dev/null || return 0
    if jq -e --arg w "$2" '.workloads[$w].metrics | has("store_bytes_per_user_byte")' "$1" >/dev/null; then
        gate "$1" "$2" "$3"
    else
        gate "$1" "$2" "$4"
    fi
    checked=1
}

for out in "$@"; do
    checked=0
    check "$out" power_warm '
        $m."store_bytes_per_user_byte" == 0.16310019053199062' '
        $m."engine.work_units_per_round" == 57428790
        and $m."engine.scan_pages_read_per_round" == 6551
        and $m."store_gets_per_round" == 0
        and $m."buffer.hit_ratio" >= 0.999
        and $m."proc.allocs_per_page_read" <= 15.2
        and $m."proc.alloc_mib_per_round" <= 487'
    check "$out" scan_cold '
        ($m."store_bytes_per_user_byte" - 0.1631076075333115 | fabs) < 1e-7' '
        $m."engine.work_units_per_round" == 13760728
        and $m."engine.scan_pages_read_per_round" == 2708
        and $m."store_gets_per_round" == 624
        and $m."ocm.evictions" == 0
        and $m."proc.alloc_mib_per_round" <= 40.7'
    check "$out" ingest '
        $m."store_bytes_per_user_byte" == 0.16010223757708825' '
        $m."objectstore.puts" == 52
        and $m."engine.scan_pages_read_per_round" <= 600
        and $m."proc.allocs_per_page_read" <= 515
        and $m."objectstore.bytes_written_per_user_byte" == 0.18732274708598365
        and $m."storage.compression_ratio" == 0.9670515510768833
        and $m."ocm.evictions" == 0'
    check "$out" txn_churn '
        $m."store_bytes_per_user_byte" == 1.9625606536865234
        and $m."store_puts_per_user_mib" == 64.16' '
        $m."objectstore.puts" == 3000
        and $m."core.reopen_log_gets" <= 2
        and $m."objectstore.bytes_written_per_user_byte" == 1.0442511596679687
        and $m."storage.compression_ratio" == 1.0442511596679687
        and $m."proc.alloc_mib_per_round" <= 445
        and $m."proc.allocs_per_page_read" <= 295'
    [[ $checked == 1 ]] || {
        echo "bench_counts: $out holds none of power_warm, scan_cold, ingest, txn_churn" >&2
        exit 1
    }
done
