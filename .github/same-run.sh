#!/usr/bin/env bash
# Usage: bash .github/same-run.sh FIRST SECOND
# Fails unless two run directories hold the same files byte for byte, but
# for the output_dir line of resolved_config.yaml, which names each run's
# own directory.
set -euo pipefail
first=$1
second=$2
diff -r --exclude=resolved_config.yaml "$first" "$second"
diff <(sed '/^output_dir:/d' "$first/resolved_config.yaml") \
     <(sed '/^output_dir:/d' "$second/resolved_config.yaml")
