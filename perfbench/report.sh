#!/usr/bin/env bash
# Runs every workload untraced and traced and prints every end-to-end and
# per-layer metric by name with its unit, plus each run's failed-operation
# share. Run it from the repository root:
#
#   bash perfbench/report.sh [seed] [seconds]
set -euo pipefail

seed=${1:-1}
seconds=${2:-20}
for w in pipeline fleet-wide fleet-tiered; do
	for trace in 0 1; do
		echo "== $w, trace $trace"
		# The last line is the machine-readable result; the table above it
		# says the same by name.
		bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" | sed '$d'
	done
done
