#!/bin/sh
# Paired A/B runs of the repository benchmark (perf/, BENCHMARK.json):
# the working tree against a base revision.
#
#   sh bench/ab.sh BASE [--workload W] [--seed S] [--pairs N] [--seconds T]
#
# Run from the repository root.  BASE is any git revision; it is checked
# out into a temporary `git worktree` (under $TMPDIR) that is removed on
# exit.  Both sides are built from source, then each pair runs the
# workload once per side, the base first in odd pairs and the change
# first in even ones, so that drift on the host cancels out.  Defaults:
# workload build, seed 1, 10 pairs, 20 seconds (BENCHMARK.json's
# run_seconds).
#
# For every end-to-end metric of BENCHMARK.json it prints each side's
# median [lower quartile, upper quartile], how many pairs the change won
# and a verdict.  The verdict is "better" or "worse" only when one side
# won at least 9 in 10 of the pairs, over at least 10 pairs, and the
# medians differ by more than the base's interquartile range; otherwise
# it is "unresolved".  With fewer pairs a clean sweep is too likely on
# noise alone (3 of 3 happens 1 time in 4 per metric), so every verdict
# reads "unresolved" and a closing note says the pair count is below 10.
# It also prints failed/attempted ops per side and where three hot entry
# points sit modulo 64 bytes in each binary: the vm's and the machine's
# dispatch loops (Vm.exec_func, Machine.exec_func) and SSAPRE's renaming
# walk (Ssapre.rename).  A delta that follows one of those residues
# follows code placement, so when any of them differs between the sides
# a closing note says so.  Then it lists, in link order, every module
# whose code size (code_end - code_begin) differs between the binaries,
# with the delta and the delta modulo 64: a module that grows by other
# than a multiple of 64 bytes moves every function linked after it,
# including functions in modules whose residues are not printed.
#
# Exit status: 0, or 1 when any metric reads "worse", or 2 on a usage,
# build or run error.
set -eu

usage() {
  echo "usage: sh bench/ab.sh BASE [--workload W] [--seed S] [--pairs N] [--seconds T]" >&2
  exit 2
}

[ $# -ge 1 ] || usage
base_rev=$1
shift
workload=build
seed=1
pairs=10
seconds=20
while [ $# -gt 0 ]; do
  [ $# -ge 2 ] || usage
  case $1 in
    --workload) workload=$2 ;;
    --seed) seed=$2 ;;
    --pairs) pairs=$2 ;;
    --seconds) seconds=$2 ;;
    *) usage ;;
  esac
  shift 2
done
case $pairs in '' | *[!0-9]*) usage ;; esac
[ "$pairs" -ge 1 ] || usage

root=$(pwd)
[ -f "$root/BENCHMARK.json" ] || { echo "ab.sh: run from the repository root" >&2; exit 2; }
base_sha=$(git rev-parse --verify "$base_rev^{commit}") || exit 2

work=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
wt="$work/base"
cleanup() {
  if [ -d "$wt" ]; then git -C "$root" worktree remove --force "$wt" || true; fi
  git -C "$root" worktree prune || true
  rm -rf "$work"
}
trap cleanup EXIT
trap 'exit 2' INT TERM

git -C "$root" worktree add --detach --quiet "$wt" "$base_sha"

build() {
  (cd "$1" && DUNE_CACHE=disabled dune build --root . ./bin/speccc.exe ./perf/specbench.exe) 1>&2 ||
    { echo "ab.sh: build failed in $1" >&2; exit 2; }
}
build "$wt"
build "$root"

# residue of a text symbol's address modulo 64, or "?"
residue() {
  nm "$1/_build/default/perf/specbench.exe" 2>/dev/null |
    awk -v pat="$2" '$3 ~ pat { v = 0; h = tolower($1)
        for (i = 1; i <= length(h); i++) v = (v * 16 + index("0123456789abcdef", substr(h, i, 1)) - 1) % 64
        print v; found = 1; exit }
      END { if (!found) print "?" }'
}

# "module bytes" per module of the benchmark binary, in link order
sizes() {
  nm -n "$1/_build/default/perf/specbench.exe" 2>/dev/null |
    awk '$3 ~ /[.]code_(begin|end)$/ {
        v = 0; h = tolower($1)
        for (i = 1; i <= length(h); i++) v = v * 16 + index("0123456789abcdef", substr(h, i, 1)) - 1
        m = $3; sub(/^caml/, "", m); sub(/[.]code_(begin|end)$/, "", m); gsub(/__/, ".", m)
        if ($3 ~ /begin$/) { if (!(m in b)) order[++n] = m; b[m] = v } else e[m] = v
      }
      END { for (i = 1; i <= n; i++) if (order[i] in e) print order[i], e[order[i]] - b[order[i]] }'
}

# one run: appends "side pair attempted failed name=value..." to results
results="$work/results"
: > "$results"
run() {
  side=$1 dir=$2 pair=$3
  out="$work/out-$side-$pair"
  (cd "$dir" && ./_build/default/perf/specbench.exe --workload "$workload" \
     --seed "$seed" --seconds "$seconds" --trace 0) > "$out" ||
    { echo "ab.sh: $side run $pair failed" >&2; exit 2; }
  tail -n 1 "$out" | awk -v side="$side" -v pair="$pair" '
    {
      line = $0
      att = line; sub(/.*"attempted": */, "", att); sub(/[^0-9].*/, "", att)
      fai = line; sub(/.*"failed": */, "", fai); sub(/[^0-9].*/, "", fai)
      printf "%s %s %s %s", side, pair, att, fai
      rest = line; sub(/.*"metrics": *\{/, "", rest)
      while (match(rest, /"[a-z_0-9]+": *\{"value": *[-0-9.eE+]+/)) {
        m = substr(rest, RSTART, RLENGTH)
        name = m; sub(/^"/, "", name); sub(/".*/, "", name)
        val = m; sub(/.*"value": */, "", val)
        printf " %s=%s", name, val
        rest = substr(rest, RSTART + RLENGTH)
      }
      printf "\n"
    }' >> "$results"
}

i=1
while [ "$i" -le "$pairs" ]; do
  if [ $((i % 2)) -eq 1 ]; then
    run base "$wt" "$i"; run change "$root" "$i"
  else
    run change "$root" "$i"; run base "$wt" "$i"
  fi
  echo "ab.sh: pair $i/$pairs done" >&2
  i=$((i + 1))
done

echo "ab.sh: $workload, seed $seed, $pairs pairs of ${seconds}s; base $base_rev ($(git rev-parse --short "$base_sha")) vs the working tree"
awk '{ a[$1] += $3; f[$1] += $4 }
  END { printf "failed/attempted: base %d/%d, change %d/%d\n", f["base"], a["base"], f["change"], a["change"] }' "$results"
# one line per hot entry point; remembers whether any residue differs
moved=
for sym in Vm.exec_func Machine.exec_func Ssapre.rename; do
  pat="$(echo "$sym" | sed 's/[.]/[.]/')_[0-9]+\$"
  b=$(residue "$wt" "$pat") c=$(residue "$root" "$pat")
  echo "$sym mod 64: base $b, change $c"
  [ "$b" = "$c" ] || moved="$moved $sym"
done

sizes "$wt" > "$work/sizes-base"
sizes "$root" > "$work/sizes-change"
awk 'FNR == NR { base[$1] = $2; next }
  { seen[$1] = 1
    if (!($1 in base)) { rows[++n] = sprintf("  %-36s %8s %8d %+8d %6d", $1, "-", $2, $2, ($2 % 64 + 64) % 64) }
    else if (base[$1] != $2) {
      d = $2 - base[$1]
      rows[++n] = sprintf("  %-36s %8d %8d %+8d %6d", $1, base[$1], $2, d, (d % 64 + 64) % 64)
    } }
  END {
    for (m in base) if (!(m in seen)) rows[++n] = sprintf("  %-36s %8d %8s %+8d %6d", m, base[m], "-", -base[m], (-base[m] % 64 + 64) % 64)
    if (n == 0) { print "module code sizes: identical"; exit }
    printf "modules whose code size differs:\n  %-36s %8s %8s %8s %6s\n", "module", "base", "change", "delta", "mod 64"
    for (i = 1; i <= n; i++) print rows[i]
  }' "$work/sizes-base" "$work/sizes-change"

# the end-to-end metrics and their directions, one object per line of
# BENCHMARK.json's "end_to_end" list
awk '/"end_to_end"/ { on = 1; next }
  on && /\]/ { on = 0 }
  on && /"name"/ {
    n = $0; sub(/.*"name": *"/, "", n); sub(/".*/, "", n)
    b = $0; sub(/.*"better": *"/, "", b); sub(/".*/, "", b)
    print n, b
  }' "$root/BENCHMARK.json" > "$work/metrics"

awk -v pairs="$pairs" '
  # quantile q of the sorted values v[1..n], linear interpolation
  function quant(v, n, q,   h, lo) {
    h = (n - 1) * q + 1; lo = int(h)
    if (lo >= n) return v[n]
    return v[lo] + (h - lo) * (v[lo + 1] - v[lo])
  }
  function sorted(src, n, dst,   i, j, t) {
    for (i = 1; i <= n; i++) dst[i] = src[i]
    for (i = 2; i <= n; i++) {
      t = dst[i]
      for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]
      dst[j + 1] = t
    }
  }
  FNR == NR { better[$1] = $2; order[++nm] = $1; next }
  {
    for (k = 5; k <= NF; k++) {
      split($k, kv, "=")
      val[$1, $2, kv[1]] = kv[2]
    }
  }
  END {
    printf "%-18s %-32s %-32s %6s  %s\n", "metric", "base median [q1, q3]", "change median [q1, q3]", "wins", "verdict"
    worse = 0
    for (m = 1; m <= nm; m++) {
      name = order[m]
      n = 0; wins = 0; losses = 0
      for (p = 1; p <= pairs; p++) {
        if (!(("base", p, name) in val) || !(("change", p, name) in val)) continue
        b = val["base", p, name] + 0; c = val["change", p, name] + 0
        n++; bs[n] = b; cs[n] = c
        if (better[name] == "higher" ? c > b : c < b) wins++
        else if (c != b) losses++
      }
      if (n == 0) continue
      sorted(bs, n, sb); sorted(cs, n, sc)
      bmed = quant(sb, n, 0.5); cmed = quant(sc, n, 0.5)
      iqr = quant(sb, n, 0.75) - quant(sb, n, 0.25)
      gap = cmed - bmed; if (gap < 0) gap = -gap
      verdict = "unresolved"
      if (n >= 10 && gap > iqr) {
        improved = (better[name] == "higher") ? cmed > bmed : cmed < bmed
        if (improved && wins >= 0.9 * n) verdict = "better"
        else if (!improved && losses >= 0.9 * n) { verdict = "worse"; worse = 1 }
      }
      printf "%-18s %-32s %-32s %3d/%-2d  %s\n", name,
        sprintf("%.4g [%.4g, %.4g]", bmed, quant(sb, n, 0.25), quant(sb, n, 0.75)),
        sprintf("%.4g [%.4g, %.4g]", cmed, quant(sc, n, 0.25), quant(sc, n, 0.75)),
        wins, n, verdict
    }
    if (pairs < 10) printf "no verdict: %d of the 10 pairs a verdict needs\n", pairs
    exit worse
  }' "$work/metrics" "$results" || status=$?
if [ -n "$moved" ]; then
  echo "note: the code moved between the sides (mod 64:$moved), so a delta may follow code placement rather than the change"
fi
exit "${status:-0}"
