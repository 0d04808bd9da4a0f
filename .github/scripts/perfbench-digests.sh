#!/usr/bin/env bash
# Runs each perfbench workload briefly at seed 1, untraced, and checks
# that the run passes its own checks and that its result_digest equals
# the one perfbench/baseline.json records for that workload and seed.
# The digest covers the first pass's result bytes, so a run of any
# length can be checked, and a kernel that drifts by one bit fails.
#
# Usage: .github/scripts/perfbench-digests.sh [SECONDS]   (default 3)
set -euo pipefail
seconds=${1:-3}
cd "$(dirname "$0")/../.."
baseline=perfbench/baseline.json
failed=0
for w in exact-corpus flp-scale serve-mix noisy-trajectory; do
  out=$(cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
    --workload "$w" --seed 1 --seconds "$seconds" --trace 0)
  echo "$out"
  got=$(echo "$out" | awk '$1 == "result_digest" { print $2 }')
  # Every recorded seed-1 run of the workload, in every set, must agree.
  want=$(python3 - "$baseline" "$w" <<'EOF'
import json, sys
data = json.load(open(sys.argv[1]))
sets = data["sets"].values() if "sets" in data else [data]
digests = {r["result_digest"] for s in sets for r in s["runs"]
           if r["workload"] == sys.argv[2] and r["seed"] == 1}
print(digests.pop() if len(digests) == 1 else "")
EOF
  )
  if [ -z "$want" ]; then
    echo "::error::$w: no single seed-1 result_digest in $baseline"
    failed=1
  elif [ "$got" != "$want" ]; then
    echo "::error::$w: result_digest $got, baseline $want"
    failed=1
  else
    echo "$w: result_digest $got matches the baseline"
  fi
done
exit "$failed"
