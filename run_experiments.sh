#!/bin/bash
# Regenerates every table and figure of the survey at the configured scale.
# Each binary writes CSVs into results/ and a log into results/logs/.
set -u
cd "$(dirname "$0")"
SCALE="${WEAVESS_SCALE:-0.003}"
export WEAVESS_SCALE="$SCALE"
BINS=(
  table02_taxonomy
  table03_datasets
  index_eval
  search_eval
  components_eval
  fig11_optimized
  table16_kdr_vs_ngt
  table23_random_trials
  table24_ml_methods
  table12_scalability
  fig14_complexity
  table07_recommendations
  ablation_oa
  tune_params
)
mkdir -p results/logs
failed=0
for b in "${BINS[@]}"; do
  echo "=== running $b (scale=$SCALE) ==="
  if cargo run --release -p weavess-bench --bin "$b" \
    > "results/logs/$b.log" 2> "results/logs/$b.err"; then
    echo "    ok"
  else
    echo "    FAILED (see results/logs/$b.err)"
    failed=$((failed + 1))
  fi
done
if [ "$failed" -gt 0 ]; then
  echo "$failed of ${#BINS[@]} experiments FAILED"
  exit 1
fi
echo "all experiments done"
