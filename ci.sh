#!/usr/bin/env bash
# Local CI gate — the same steps .github/workflows/ci.yml runs.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test"
cargo test --workspace -q

echo "==> perf ledger unit tests (a package outside the workspace)"
cargo test -q --offline --manifest-path crates/bench/src/bin/ledger/Cargo.toml

echo "==> perf ledger correctness smoke (every workload, traced pass)"
for w in fleet_ops fleet_forensics service_mixed service_commits; do
  echo "--> ledger: $w"
  cargo run --release --offline --quiet --manifest-path crates/bench/src/bin/ledger/Cargo.toml -- \
    --workload "$w" --seconds 1 --trace 1 > /dev/null
done

echo "==> examples smoke"
cargo build --release --examples
for ex in examples/*.rs; do
  name="$(basename "$ex" .rs)"
  echo "--> example: $name"
  cargo run --release --quiet --example "$name" > /dev/null
done

echo "==> exp_report --json --journal"
cargo run -p vdo-bench --bin exp_report --release --quiet -- --json target/exp_report.json --journal target/journal.jsonl > /dev/null
python3 -c "import json; json.load(open('target/exp_report.json'))" 2> /dev/null \
  || echo "   (python3 unavailable — skipping JSON validation)"
python3 -c "import json; [json.loads(l) for l in open('target/journal.jsonl')]" 2> /dev/null \
  || echo "   (python3 unavailable — skipping JSONL validation)"

echo "==> E15 latency budget (smoke p99 vs documented budget)"
python3 - << 'EOF' 2> /dev/null || echo "   (python3 unavailable — budget asserted in-binary by exp_report)"
import json
smoke = json.load(open('target/exp_report.json'))['e15_server']['smoke']
assert smoke['within_budget'], \
    f"E15 smoke p99 {smoke['p99_ticks']:.1f} exceeds the {smoke['budget_ticks']}-round budget"
print(f"   p99 {smoke['p99_ticks']:.1f} rounds <= budget {smoke['budget_ticks']}")
EOF

echo "==> E16 fleet-scale budget (100k-host smoke vs pinned memory + latency budgets)"
python3 - << 'EOF' 2> /dev/null || echo "   (python3 unavailable — budgets asserted in-binary by exp_report)"
import json
smoke = json.load(open('target/exp_report.json'))['e16_fleet_scale']['smoke']
assert smoke['within_budget'], (
    f"E16 smoke out of budget: {smoke['bytes_per_host']:.1f} bytes/host "
    f"(budget {smoke['bytes_budget']}), ratio {smoke['memory_ratio']:.1f}x "
    f"(floor {smoke['ratio_floor']}), max tick {smoke['max_tick_millis']:.3f} ms "
    f"(budget {smoke['tick_budget_millis']})")
print(f"   {smoke['hosts']} hosts: {smoke['bytes_per_host']:.1f} B/host "
      f"<= {smoke['bytes_budget']:.0f}, ratio {smoke['memory_ratio']:.0f}x "
      f">= {smoke['ratio_floor']:.0f}x, max tick {smoke['max_tick_millis']:.3f} ms "
      f"<= {smoke['tick_budget_millis']:.0f} ms")
EOF

echo "==> E17 incremental-analysis budget (1%-touch commit vs full re-run)"
python3 - << 'EOF' 2> /dev/null || echo "   (python3 unavailable — budget asserted in-binary by exp_report)"
import json
smoke = json.load(open('target/exp_report.json'))['e17_incremental_analysis']['smoke']
assert smoke['within_budget'], (
    f"E17 smoke out of budget: incremental mean {smoke['incr_mean_millis']:.3f} ms "
    f"is {smoke['latency_fraction']:.1%} of full {smoke['full_millis']:.3f} ms "
    f"(budget {smoke['fraction_budget']:.0%}), "
    f"reports identical: {smoke['reports_identical']}")
print(f"   {smoke['entries']} entries, {smoke['commits']} commits touching "
      f"{smoke['touched_per_commit']} each: incremental {smoke['incr_mean_millis']:.3f} ms "
      f"= {smoke['latency_fraction']:.1%} of full {smoke['full_millis']:.3f} ms "
      f"(budget {smoke['fraction_budget']:.0%}), reports identical")
EOF

echo "==> E18 journal/replay budget (size ratio vs JSONL + replay latency)"
python3 - << 'EOF' 2> /dev/null || echo "   (python3 unavailable — budgets asserted in-binary by exp_report)"
import json
e18 = json.load(open('target/exp_report.json'))['e18_journal_replay']
smoke = e18['smoke']
assert smoke['within_budget'], (
    f"E18 smoke out of budget: {smoke['jsonl_ratio']:.2f}x vs JSONL "
    f"(floor {smoke['ratio_floor']:.0f}x), root resolution "
    f"{smoke['root_resolution_pct']:.0f}%, max replay {smoke['max_replay_millis']:.1f} ms "
    f"(budget {smoke['replay_budget_millis']:.0f} ms)")
print(f"   columnar {e18['size']['bytes_per_event']:.1f} B/event = "
      f"{smoke['jsonl_ratio']:.2f}x smaller than JSONL (floor {smoke['ratio_floor']:.0f}x), "
      f"root resolution {smoke['root_resolution_pct']:.0f}%, max replay "
      f"{smoke['max_replay_millis']:.1f} ms <= {smoke['replay_budget_millis']:.0f} ms")
EOF
test -n "$(ls target/e18_compact/seg-*.vdoj 2> /dev/null)" \
  || { echo "E18 compacted journal segments missing from target/e18_compact"; exit 1; }

echo "==> E19 telemetry-plane budget (overhead + sampling ratio + alert latency)"
python3 - << 'EOF' 2> /dev/null || echo "   (python3 unavailable — budgets asserted in-binary by exp_report)"
import json
e19 = json.load(open('target/exp_report.json'))['e19_telemetry_plane']
smoke = e19['smoke']
assert smoke['within_budget'], (
    f"E19 smoke out of budget: plane overhead "
    f"{e19['overhead']['plane_overhead_pct']:.2f}% "
    f"(budget {e19['overhead']['budget_pct']:.0f}%), sampled journal "
    f"{e19['sampling']['size_ratio']:.1f}x smaller "
    f"(floor {e19['sampling']['size_ratio_floor']:.0f}x), root resolution "
    f"{e19['sampling']['root_resolution_pct']:.0f}%, alert latency "
    f"{e19['alerting']['alert_latency_ticks']} ticks "
    f"(budget {e19['alerting']['latency_budget_ticks']})")
print(f"   plane overhead {e19['overhead']['plane_overhead_pct']:.2f}% "
      f"<= {e19['overhead']['budget_pct']:.0f}%, sampled journal "
      f"{e19['sampling']['size_ratio']:.1f}x smaller "
      f"(floor {e19['sampling']['size_ratio_floor']:.0f}x) at "
      f"{e19['sampling']['root_resolution_pct']:.0f}% root resolution, "
      f"alert latency {e19['alerting']['alert_latency_ticks']} ticks "
      f"<= {e19['alerting']['latency_budget_ticks']}")
EOF
test -s target/e19_alerts.log \
  || { echo "E19 alert log missing or empty at target/e19_alerts.log"; exit 1; }

echo "CI green."
