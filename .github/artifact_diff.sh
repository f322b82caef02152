#!/bin/sh
# Run the three bundled configs with --seed 0 at a base revision and at the
# working tree, and print the `diff -r` of their artifacts without the
# volatile fields: the timestamp= and wall_seconds= lines of summary.txt
# and the wall_seconds column of table.csv.  What `verify --seed 0` prints
# on each config is kept as verify_<config>.txt and diffed with them.
# Report only: the diff does not set the exit status.
#
#   sh .github/artifact_diff.sh BASE_REV WORK_DIR
set -eu
base_rev=$1
work=$2
mkdir -p "$work/base-tree"
git archive "$base_rev" | tar -x -C "$work/base-tree"

# losem_at SRC ARGS...: run `losem ARGS...` from the tree SRC
losem_at() {
  PYTHONPATH="$1" python - "$@" <<'PY'
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
}

for side in base head; do
  if [ "$side" = base ]; then src="$work/base-tree/src"; else src="$PWD/src"; fi
  mkdir -p "$work/$side"
  for cfg in exact_em_64 loping_n10 compare_table; do
    config="$src/losem/configs/$cfg.cfg"
    losem_at "$src" run "$config" --seed 0 --quiet --out "$work/$side/$cfg"
    losem_at "$src" verify "$config" --seed 0 --quiet \
      > "$work/$side/verify_$cfg.txt" 2>&1 || echo "exit $?" >> "$work/$side/verify_$cfg.txt"
  done
  find "$work/$side" -name summary.txt -exec sed -i '/^timestamp=/d;/^wall_seconds=/d' {} +
  find "$work/$side" -name table.csv -exec sed -i -E 's/^([^,]*,[^,]*,[^,]*),[^,]*,/\1,,/' {} +
done
diff -r "$work/base" "$work/head" && echo "no differences" || true
