#!/usr/bin/env bash
# Prints the non-blank Rust lines outside vendor/ at BASE and at HEAD,
# and their difference, split into non-test and test code per group.
# A group is a crate under crates/, or a top-level directory (src/,
# tests/, examples/, perfbench/). Test code is every file under a
# tests/ or benches/ directory, and every line of any other file from
# its first `#[cfg(test)]` on.
#
# Usage: .github/scripts/net-lines.sh BASE [HEAD]
# Both are commits (HEAD defaults to HEAD); uncommitted edits are not counted.
set -euo pipefail
if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 BASE [HEAD]" >&2
  exit 2
fi
base=$1
head=${2:-HEAD}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Writes "group non_test test" lines for the Rust files of revision $1.
count() {
  local dir="$tmp/$2"
  mkdir -p "$dir"
  git archive "$1" | tar -x -C "$dir"
  (cd "$dir" && find . -name '*.rs' -not -path './vendor/*' | sed 's|^\./||' | sort |
    xargs awk '
      FNR == 1 {
        n = split(FILENAME, part, "/")
        group = part[1] == "crates" ? part[2] : part[1]
        in_test = FILENAME ~ /(^|\/)(tests|benches)\//
        groups[group] = 1
      }
      /^[ \t]*#\[cfg\(test\)\]/ { in_test = 1 }
      /[^ \t\r]/ { if (in_test) test[group]++; else code[group]++ }
      END { for (g in groups) print g, code[g] + 0, test[g] + 0 }
    ')
}

count "$base" base > "$tmp/base.txt"
count "$head" head > "$tmp/head.txt"

# Joins the two counts per group (summing, since xargs may split the
# files over several awk runs), then prints one row per group and
# the totals.
awk '
  NR == FNR { bc[$1] += $2; bt[$1] += $3; groups[$1] = 1; next }
  { hc[$1] += $2; ht[$1] += $3; groups[$1] = 1 }
  END { for (g in groups) print g, bc[g] + 0, hc[g] + 0, bt[g] + 0, ht[g] + 0 }
' "$tmp/base.txt" "$tmp/head.txt" | sort |
  awk -v base="$base" -v head="$head" '
    function delta(d) { return d > 0 ? "+" d : d }
    function row(g, bc, hc, bt, ht) {
      printf "%-12s %24s %24s\n", g,
        sprintf("%d -> %d (%s)", bc, hc, delta(hc - bc)),
        sprintf("%d -> %d (%s)", bt, ht, delta(ht - bt))
    }
    BEGIN {
      printf "%s -> %s (non-blank Rust lines outside vendor/)\n", base, head
      printf "%-12s %24s %24s\n", "group", "non-test", "test"
    }
    { row($1, $2, $3, $4, $5); bc += $2; hc += $3; bt += $4; ht += $5 }
    END { row("total", bc, hc, bt, ht) }
  '
