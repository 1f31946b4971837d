#!/usr/bin/env bash
# The CI gate: .github/workflows/ci.yml runs this script after toolchain setup.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

# A golden test that sees BLESS_GOLDEN (even empty) rewrites its file and passes.
if [ -n "${BLESS_GOLDEN+set}" ]; then
  echo "BLESS_GOLDEN is set: golden tests would re-bless instead of checking; unset it and rerun." >&2
  exit 1
fi

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

echo "==> NALABS matcher oracle, 4096 cases per property (the compiled matcher's correctness rests on it)"
PROPTEST_CASES=4096 cargo test --release -q -p vdo-nalabs --test kernel_equivalence

echo "==> catalogue monitors vs LTL, 4096 cases per property (every entry with an observer, both semantics, every prefix)"
PROPTEST_CASES=4096 cargo test --release -q -p vdo-specpat --test monitor_vs_ltl

echo "==> journal equivalence, 4096 cases per property (batch emit vs one at a time; segment-parallel vs sequential scans)"
PROPTEST_CASES=4096 cargo test --release -q -p vdo-trace --test properties equivalence::

echo "==> pool goldens pinned to one CPU (the worker pool's barrier passes with no parallelism)"
if command -v taskset > /dev/null; then
  # The pool's own tests: a worker cannot run until the caller, which
  # runs its closure first, parks.
  taskset -c 0 cargo test -q -p vdo-soc --lib runtime
  # The journal directory's segment scan on one thread: it must equal
  # the same scan on every available CPU.
  taskset -c 0 cargo test -q -p vdo-trace
  # The SOC's main thread journals the last tick's events inside the
  # advance pass's caller closure, on the CPU its workers share.
  taskset -c 0 cargo test -q -p vdo-soc --test steady_state_golden --test backpressure_golden \
    --test firehose_disk_golden
  taskset -c 0 cargo test -q -p vdo-server --test verdict_log_golden
  # Operations run on the SOC engine's pool, also in the closed loop.
  taskset -c 0 cargo test -q -p vdo-pipeline --test closed_loop_golden
else
  echo "   (taskset unavailable — skipping the one-CPU golden run)"
fi

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

echo "==> exp_report --json --journal (exit 1 names every failed E2, E11 and E15–E19 budget)"
cargo run -p vdo-bench --bin exp_report --release --quiet -- --json target/exp_report.json --journal target/journal.jsonl \
  | sed -n '/^== Budgets ==/,$p'
if command -v python3 > /dev/null; then
  python3 -c "import json; json.load(open('target/exp_report.json'))"
  python3 -c "import json; [json.loads(l) for l in open('target/journal.jsonl')]"
else
  echo "   (python3 unavailable — skipping JSON and JSONL validation)"
fi
test -n "$(ls target/e18_compact/seg-*.vdoj 2> /dev/null)" \
  || { echo "E18 compacted journal segments missing from target/e18_compact"; exit 1; }
# The compacted segments are a pure function of the seeded run: their
# bytes must match the committed digests (re-bless only for an
# intentional format or behaviour change).
if command -v sha256sum > /dev/null; then
  sha256sum target/e18_compact/seg-*.vdoj | diff crates/bench/tests/golden/e18_compact.sha256 - \
    || { echo "E18 compacted segment bytes differ from crates/bench/tests/golden/e18_compact.sha256"; exit 1; }
else
  echo "   (sha256sum unavailable — skipping the E18 compacted-segment digest check)"
fi
test -s target/e19_alerts.log \
  || { echo "E19 alert log missing or empty at target/e19_alerts.log"; exit 1; }

echo "CI green."
