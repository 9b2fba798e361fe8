#!/usr/bin/env bash
# Local CI: the checks every change must pass before landing.
#
#   ./ci.sh          # fmt + clippy + tests
#
# All dependencies are vendored (see vendor/), so this runs fully offline.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== harl-lint =="
cargo run -q -p harl-lint -- --root .

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test --workspace -q

echo "== benches compile =="
cargo bench --workspace --no-run -q

echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== scenario smoke test =="
out="$(mktemp -d)"
cargo run --release -q -p harl-bench --bin harl-cli -- \
    run --scenario scenarios/smoke.json --out "$out/smoke.json"
if ! diff -u scenarios/smoke.golden.json "$out/smoke.json"; then
    echo "scenario smoke report diverged from scenarios/smoke.golden.json" >&2
    echo "(if the change is intentional, regenerate the golden with the command above)" >&2
    exit 1
fi
echo "scenario report matches golden"
rm -rf "$out"

echo "== metrics report golden =="
out="$(mktemp -d)"
cargo run --release -q -p harl-bench --bin harl-cli -- \
    run --scenario scenarios/smoke.json --sample-ms 1 \
    --metrics-out "$out/metrics.jsonl" --out "$out/smoke.json" >/dev/null
cargo run --release -q -p harl-bench --bin harl-cli -- \
    report "$out/metrics.jsonl" > "$out/report.txt"
if ! diff -u scenarios/smoke.report.golden.txt "$out/report.txt"; then
    echo "rendered metrics report diverged from scenarios/smoke.report.golden.txt" >&2
    echo "(if the change is intentional, regenerate the golden with the commands above)" >&2
    exit 1
fi
echo "metrics report matches golden"
rm -rf "$out"

echo "== three-tier scenario golden =="
out="$(mktemp -d)"
cargo run --release -q -p harl-bench --bin harl-cli -- \
    run --scenario scenarios/three_tier.json --out "$out/three_tier.json"
if ! diff -u scenarios/three_tier.golden.json "$out/three_tier.json"; then
    echo "three-tier scenario report diverged from scenarios/three_tier.golden.json" >&2
    echo "(if the change is intentional, regenerate the golden with the command above)" >&2
    exit 1
fi
python3 - scenarios/three_tier.golden.json <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["plan_cost_usd"] > 0, "three-tier plan must carry a non-zero dollar cost"
print("three-tier report matches golden (plan_cost_usd = %.6f)" % doc["plan_cost_usd"])
PY
rm -rf "$out"

echo "== three-tier HARL scenario golden =="
# The same cluster and workload under the HARL policy: the only golden
# that runs the K>=3 coordinate descent end to end.
out="$(mktemp -d)"
cargo run --release -q -p harl-bench --bin harl-cli -- \
    run --scenario scenarios/three_tier_harl.json --out "$out/three_tier_harl.json"
if ! diff -u scenarios/three_tier_harl.golden.json "$out/three_tier_harl.json"; then
    echo "three-tier HARL report diverged from scenarios/three_tier_harl.golden.json" >&2
    echo "(if the change is intentional, regenerate the golden with the command above)" >&2
    exit 1
fi
echo "three-tier HARL report matches golden"
rm -rf "$out"

echo "== wide fan-out scenario golden =="
# 256 servers, one 64 KiB stripe each: every 16 MiB read fans out to all
# of them in one batch, the widest disk fan-out any golden exercises.
out="$(mktemp -d)"
cargo run --release -q -p harl-bench --bin harl-cli -- \
    run --scenario scenarios/wide_fanout.json --out "$out/wide_fanout.json"
if ! diff -u scenarios/wide_fanout.golden.json "$out/wide_fanout.json"; then
    echo "wide fan-out report diverged from scenarios/wide_fanout.golden.json" >&2
    echo "(if the change is intentional, regenerate the golden with the command above)" >&2
    exit 1
fi
echo "wide fan-out report matches golden"
rm -rf "$out"

echo "== multiapp serve scenario golden =="
out="$(mktemp -d)"
cargo run --release -q -p harl-bench --bin harl-cli -- \
    serve --scenario scenarios/multiapp.json --out "$out/multiapp.json"
if ! diff -u scenarios/multiapp.golden.json "$out/multiapp.json"; then
    echo "multiapp serve report diverged from scenarios/multiapp.golden.json" >&2
    echo "(if the change is intentional, regenerate the golden with the command above)" >&2
    exit 1
fi
python3 - scenarios/multiapp.golden.json <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["cache_hit_rate"] > 0, "multiapp replay must hit the plan cache"
assert doc["plans_hit"] + doc["plans_stale"] + doc["plans_miss"] == doc["jobs"], doc
assert doc["batch_applied"] + doc["batch_coalesced"] == doc["batch_enqueued"], doc
print("multiapp report matches golden (cache hit rate = %.1f%%)"
      % (100 * doc["cache_hit_rate"]))
PY
rm -rf "$out"

echo "== paper results =="
# Regenerates every figure and ablation at the paper's sizes (~20 s) and
# diffs the results/*.json files byte for byte, so a file missing on either
# side fails too. The only wall-clock values in them are abl-step.json's
# planner timings (`wall_s`), so those lines are dropped from both sides of
# that one diff; results/full_run.log is the committed run's console log.
out="$(mktemp -d)"
cargo run --release -q -p harl-bench --bin experiments -- \
    --paper --out "$out" all >/dev/null
status=0
diff -ru --exclude=abl-step.json --exclude=full_run.log results "$out" || status=1
diff -u <(grep -v '"wall_s":' results/abl-step.json) \
    <(grep -v '"wall_s":' "$out/abl-step.json") || status=1
rm -rf "$out"
if [ "$status" -ne 0 ]; then
    echo "paper results diverged from results/*.json" >&2
    echo "(if the change is intentional, regenerate them with" >&2
    echo " cargo run --release -p harl-bench --bin experiments -- --paper all)" >&2
    exit 1
fi
echo "paper results match results/*.json"

echo "== determinism audit (fast tier) =="
# Re-runs the smoke and multiapp scenarios at 1 and 8 planner threads,
# hashes every artifact (report JSON + wall-clock-stripped metrics JSONL)
# and fails on any byte difference across thread budgets or against the
# committed goldens. The full tier (all five scenarios, threads 1/2/8,
# two seeds) is `harl-cli audit-determinism` without --fast.
cargo run --release -q -p harl-bench --bin harl-cli -- \
    audit-determinism --fast

echo "== perfbench self-tests =="
# The benchmark's own tests: its BENCHMARK.json contract, and that an
# injected slowdown in one layer is caught and attributed to that layer.
# perfbench is a separate package (see perfbench/README.md).
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "CI OK"
