#!/bin/sh
# Run the three bundled configs with --seed 0 at a base revision and at the
# working tree, render each config's phantom (`losem phantom`, kept in
# phantom_<config>/), run loping_n10.cfg once more without its gamma line,
# so that its threshold constant comes from the kernel and data bounds, the
# way no bundled config runs (kept in loping_n10_bounds/; a base tree whose
# configs still set gamma_mode = explicit has that line rewritten to
# bounds), and print the `diff -r` of their artifacts without
# the volatile fields: the wall_seconds= line of summary.txt (and the
# timestamp= line older revisions write there) and the wall_seconds column
# of table.csv.  What `verify --seed 0` prints on each config, the bounds
# variant included, is kept as verify_<config>.txt and diffed with them.
# After the diff comes one line per differing text file: how many of its
# numbers differ, the largest relative difference among them, and whether
# any word or integer field (k_star, cycles, stopped_by_rule, ...) differs.
# A CSV file whose header changed is compared by column name: the line
# names the added and removed columns, and its counts cover the shared
# columns only.
# Report only: neither the diff nor the summary sets the exit status.
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
    losem_at "$src" phantom "$config" --quiet --out "$work/$side/phantom_$cfg"
    losem_at "$src" verify "$config" --seed 0 --quiet \
      > "$work/$side/verify_$cfg.txt" 2>&1 || echo "exit $?" >> "$work/$side/verify_$cfg.txt"
  done
  # the bounds variant, outside the diffed tree, with its phantom's path
  # made absolute
  bounds="$work/loping_n10_bounds_$side.cfg"
  sed -e 's/^gamma_mode = explicit/gamma_mode = bounds/' -e '/^gamma = /d' \
      -e "s#^phantom = #phantom = $src/losem/configs/#" \
      "$src/losem/configs/loping_n10.cfg" > "$bounds"
  losem_at "$src" run "$bounds" --seed 0 --quiet --out "$work/$side/loping_n10_bounds"
  losem_at "$src" verify "$bounds" --seed 0 --quiet > "$work/$side/verify_loping_n10_bounds.txt" \
    2>&1 || echo "exit $?" >> "$work/$side/verify_loping_n10_bounds.txt"
  find "$work/$side" -name summary.txt -exec sed -i '/^timestamp=/d;/^wall_seconds=/d' {} +
  find "$work/$side" -name table.csv -exec sed -i -E 's/^([^,]*,[^,]*,[^,]*),[^,]*,/\1,,/' {} +
done
diff -r "$work/base" "$work/head" && echo "no differences" || true

python - "$work/base" "$work/head" <<'PY' || echo "numeric summary failed (exit $?)"
import math
import os
import re
import sys

base, head = sys.argv[1:]


def fields(path):
    # the tokens between separators; None for a file that is not text
    try:
        with open(path, encoding="utf-8") as fh:
            return re.findall(r"[^\s,=]+", fh.read())
    except UnicodeDecodeError:
        return None


def columns(path):
    # a CSV file's columns by name, or None when its first line holds a
    # number and so is no header
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh]
    if not rows or any(is_number(name) for name in rows[0]):
        return None
    return {name: [row[i] for row in rows[1:]] for i, name in enumerate(rows[0])}


def is_number(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


def as_float(token):
    # a float field: it parses, and it is not an integer
    if re.fullmatch(r"[+-]?\d+", token):
        return None
    try:
        return float(token)
    except ValueError:
        return None


print("numeric summary, one line per differing text file:")
for root, _, names in sorted(os.walk(base)):
    for name in sorted(names):
        a_path = os.path.join(root, name)
        rel = os.path.relpath(a_path, base)
        b_path = os.path.join(head, rel)
        if not os.path.exists(b_path):
            continue
        a, b = fields(a_path), fields(b_path)
        if a is None or b is None or a == b:
            continue
        note = ""
        ca, cb = (columns(p) if p.endswith(".csv") else None for p in (a_path, b_path))
        if ca is not None and cb is not None and list(ca) != list(cb):
            shared = [col for col in ca if col in cb]
            note = (f"columns added {[col for col in cb if col not in ca]}, removed "
                    f"{[col for col in ca if col not in cb]}; in the shared columns, ")
            a = [t for col in shared for t in ca[col]]
            b = [t for col in shared for t in cb[col]]
        floats, moved, worst, other = 0, 0, 0.0, len(a) != len(b)
        for x, y in zip(a, b):
            fx, fy = as_float(x), as_float(y)
            if fx is None or fy is None:
                other |= x != y
                continue
            floats += 1
            if x != y:
                moved += 1
                if fx != fy and not (math.isnan(fx) and math.isnan(fy)):
                    d = abs(fx - fy) / max(abs(fx), abs(fy))
                    # a move to or from inf or nan is an infinite difference
                    worst = max(worst, d if d == d else math.inf)
        print(f"{rel}: {note}{moved} of {floats} numbers differ, largest relative "
              f"difference {worst:.3g}; word and integer fields "
              f"{'DIFFER' if other else 'equal'}")
PY
