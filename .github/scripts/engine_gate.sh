#!/usr/bin/env bash
# Engine fast-path gate. Runs `bench/main.exe --only engine` on the
# working tree and on BASE, a git revision built in a temporary
# worktree, on the same host: BASE, tree, BASE, tree, so slow drift in
# host speed hits both sides. Each side's events/sec is its best of two
# runs, and the tree's must reach 0.8x of BASE's; the overhead and
# warm-fetch gates read the tree's last run.
#
#   .github/scripts/engine_gate.sh BASE   # from the repository root
#
# CI passes the merge-base of a pull request, or HEAD^ on a push.
# Leaves BENCH_engine.json (the tree's last run) and
# BENCH_engine.baseline.json (BASE's last run) in the current
# directory. Set TMPDIR to choose where the worktree is built.
set -euo pipefail
base=${1:?usage: .github/scripts/engine_gate.sh BASE-REVISION}
wt=$(mktemp -d "${TMPDIR:-/tmp}/engine-base.XXXXXX")
cleanup() {
  git worktree remove --force "$wt" >/dev/null 2>&1 || rm -rf "$wt"
  git worktree prune
}
trap cleanup EXIT
git worktree add --detach "$wt" "$base" >/dev/null
(cd "$wt" && dune build --root . ./bench/main.exe)
dune build ./bench/main.exe
for round in 1 2; do
  (cd "$wt" && ./_build/default/bench/main.exe --only engine >/dev/null)
  cp "$wt/BENCH_engine.json" "$wt/base-$round.json"
  ./_build/default/bench/main.exe --only engine
  cp BENCH_engine.json "$wt/tree-$round.json"
done
cp "$wt/base-2.json" BENCH_engine.baseline.json
python3 - "$base" "$wt" <<'EOF'
import json, sys
rev, wt = sys.argv[1], sys.argv[2]
runs = {side: [json.load(open(f"{wt}/{side}-{r}.json")) for r in (1, 2)]
        for side in ("base", "tree")}
cur = runs["tree"][-1]
for key in ("pure_timer", "proc_delay", "condvar_ping"):
    c = max(r[key]["per_sec"] for r in runs["tree"])
    b = max(r[key]["per_sec"] for r in runs["base"])
    assert c >= 0.8 * b, f"{key} regressed: {c:.0f}/s vs base {b:.0f}/s"
    print(f"{key}: {c:.0f}/s (base {rev[:12]} {b:.0f}/s, {c/b:.2f}x)")
ov = cur["instr_off_overhead_pct"]
assert ov <= 5.0, f"instrumentation-off overhead {ov:.1f}% > 5%"
fr = cur["flight_ring_overhead_pct"]
assert fr <= 5.0, f"flight-recorder ring overhead {fr:.1f}% > 5%"
sp = cur["speedup_vs_pre_pr"]["pure_timer"]
assert sp >= 5.0, f"pure-timer vs pre-PR fiber expression only {sp:.2f}x"
# host-independent: a warm demand fetch moves its segment by
# reference, so it allocates less major heap than one 1 MB segment
seg_words = (1024 * 1024) // 8
dfm = cur["demand_fetch_per_fetch"]["major_words_per_unit"]
assert dfm < seg_words, \
    f"warm demand fetch allocates {dfm:.0f} major words >= one segment ({seg_words})"
print(f"warm demand fetch: {dfm:.0f} major words (one segment = {seg_words})")
print(f"engine bench ok: {sp:.2f}x vs pre-PR, instr-off overhead "
      f"{ov:.1f}%, flight ring {fr:.1f}%")
EOF
