#!/usr/bin/env bash
# Static lint: no I/O while a cache lock is held.
#
# The sharded buffer manager and the OCM both promise that slow paths —
# FlushSink::flush, object-store GETs/PUTs (directly or via the retry
# layer), and simulated-SSD block I/O — never run under a shard/LRU mutex.
# Holding a cache lock across a store round-trip reintroduces exactly the
# convoy the sharding refactor removed, and no unit test reliably catches
# it (the code still *works*, it just serializes).
#
# Heuristic per file (non-test code only):
#   * a line binding a mutex guard (`let g = ….lock();`, `g = ….lock();`,
#     `let g = self.lock_shard(…)`) marks a guard live at the current
#     brace depth;
#   * the guard dies at `drop(g)` or when the depth falls below the
#     binding depth;
#   * any I/O call on a line while a guard is live is an error, unless
#     the line carries an explicit `// LOCK-OK: <why>` annotation
#     (the OCM holds its lock across an SSD read as the simulation's
#     slot pin; the reactor's gate is held across one backend call, see
#     below).
#
# False positives are possible (it is a lexical heuristic, not borrowck);
# annotate genuinely-safe sites with `LOCK-OK` and a reason.

set -euo pipefail
cd "$(dirname "$0")/.."

# The group-commit gather makes the same promise for its mutex: the
# leader's PUT upload runs with the lock dropped (LOCK-OK at the upload
# site). The reactor is scanned for the opposite reason: its gate is not
# a cache lock but the sequencing point, held across exactly one backend
# call by design (the caller's closure, `op()`, which the pattern below
# counts as I/O; LOCK-OK at that one site) — nothing else in reactor.rs
# may do I/O under it.
STATUS=0
for f in crates/iq-buffer/src/*.rs crates/iq-ocm/src/*.rs \
         crates/iq-objectstore/src/reactor.rs crates/iq-common/src/io.rs \
         crates/iq-core/src/group_commit.rs \
         crates/iq-core/src/log_recovery.rs \
         crates/iq-bench/src/scheduler.rs \
         crates/iq-engine/src/table.rs \
         crates/iq-engine/src/scanstats.rs; do
  awk -v FILE="$f" '
    BEGIN { depth = 0; nguards = 0; bad = 0 }
    # Non-doc comment-only lines cannot hold locks or do I/O.
    /^[ \t]*\/\// { next }
    # Everything below #[cfg(test)] is test scaffolding; stop there.
    /#\[cfg\(test\)\]/ { exit bad }
    {
      line = $0
      ok = index(line, "LOCK-OK") > 0

      # I/O while any guard is live (check before this line may acquire).
      if (nguards > 0 && !ok &&
          line ~ /(sink\.flush\(|retry\.get\(|retry\.put\(|\.read_blocks\(|\.write_blocks\(|store\.get\(|store\.put\(|backend\.get\(|backend\.put\(|loader\(\)|[^A-Za-z_.]op\(\))/) {
        printf "%s:%d: I/O under a live cache lock: %s\n", FILE, FNR, line
        bad = 1
      }

      # Guard acquisition: an assignment whose RHS takes a mutex.
      if (line ~ /=[^=].*(\.lock\(\)|lock_shard\()/ && line !~ /==/) {
        name = line
        sub(/^[ \t]*/, "", name)
        sub(/^let[ \t]+/, "", name)
        sub(/^mut[ \t]+/, "", name)
        sub(/[ \t]*=.*/, "", name)
        if (name ~ /^[A-Za-z_][A-Za-z0-9_]*$/) {
          gdepth[nguards] = depth
          gname[nguards] = name
          nguards++
        }
      }

      # Explicit drops release the most recent guard with that name.
      if (line ~ /drop\(/) {
        for (i = nguards - 1; i >= 0; i--) {
          if (index(line, "drop(" gname[i] ")") > 0) {
            for (j = i; j < nguards - 1; j++) {
              gdepth[j] = gdepth[j + 1]
              gname[j] = gname[j + 1]
            }
            nguards--
            break
          }
        }
      }

      # Brace accounting; guards die when their scope closes.
      opens = gsub(/{/, "{", line)
      closes = gsub(/}/, "}", line)
      depth += opens - closes
      while (nguards > 0 && depth < gdepth[nguards - 1]) nguards--
    }
    END { exit bad }
  ' "$f" || STATUS=1
done

if [ "$STATUS" -ne 0 ]; then
  echo "lock-across-io: violations found (annotate safe sites with // LOCK-OK: <reason>)" >&2
  exit 1
fi
echo "lock-across-io: clean"
