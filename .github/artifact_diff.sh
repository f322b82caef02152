#!/bin/sh
# Run the three bundled configs with --seed 0 at a base revision and at the
# working tree, and print the `diff -r` of their artifacts without the
# volatile fields: the timestamp= and wall_seconds= lines of summary.txt
# and the wall_seconds column of table.csv.  Report only: the diff does
# not set the exit status.
#
#   sh .github/artifact_diff.sh BASE_REV WORK_DIR
set -eu
base_rev=$1
work=$2
mkdir -p "$work/base-tree"
git archive "$base_rev" | tar -x -C "$work/base-tree"
for side in base head; do
  if [ "$side" = base ]; then src="$work/base-tree/src"; else src="$PWD/src"; fi
  for cfg in exact_em_64 loping_n10 compare_table; do
    PYTHONPATH="$src" python - "$src" run "$src/losem/configs/$cfg.cfg" \
      --seed 0 --quiet --out "$work/$side/$cfg" <<'PY'
import os
import sys

import losem
from losem.cli import main

# the tree that runs is the one named, not an installed copy
src = os.path.realpath(sys.argv[1])
if os.path.dirname(os.path.dirname(os.path.realpath(losem.__file__))) != src:
    sys.exit(f"losem imported from {losem.__file__}, not from {src}")
sys.exit(main(sys.argv[2:]))
PY
  done
  find "$work/$side" -name summary.txt -exec sed -i '/^timestamp=/d;/^wall_seconds=/d' {} +
  find "$work/$side" -name table.csv -exec sed -i -E 's/^([^,]*,[^,]*,[^,]*),[^,]*,/\1,,/' {} +
done
diff -r "$work/base" "$work/head" && echo "no differences" || true
