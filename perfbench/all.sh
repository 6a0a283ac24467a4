#!/bin/sh
# Every workload, end-to-end then traced, from the repository root:
#   sh perfbench/all.sh [seed] [seconds]
set -e
for workload in sweep-svd backtest-raw smooth-wide; do
    for trace in 0 1; do
        python3 perfbench/run.py --workload "$workload" --seed "${1:-0}" \
            --seconds "${2:-30}" --trace "$trace"
    done
done
