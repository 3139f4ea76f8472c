#!/bin/sh
# @ci smoke for the threaded-code vm: run a kernel through the
# content-addressed compile cache twice — the cold compile must miss and
# store, the warm one must hit and print the same output, so the
# bytecode lowered from the cached program runs like the cold build's.
# `speccc stats` then checks the vm against the machine on every
# pipeline variant.  The third argument is a recursive kernel whose every
# activation arms the semantic ALAT: it runs under injected faults, with
# dead frames' entries reclaimed, and must print what the unoptimized
# program prints.
set -eu

speccc="$1"
src="$2"
frames="$3"

work="$(mktemp -d -t speccc-engine-ci-XXXXXX)"
trap 'rm -rf "$work"' EXIT

cold="$("$speccc" run --cache-dir "$work/cache" "$src" 2> "$work/cold.err")"
warm="$("$speccc" run --cache-dir "$work/cache" "$src" 2> "$work/warm.err")"

[ "$cold" = "$warm" ] || {
  echo "engine ci: warm vm output differs from the cold run" >&2
  echo "cold: $cold" >&2; echo "warm: $warm" >&2
  exit 1
}
grep -q "misses 1  stores 1" "$work/cold.err" || {
  echo "engine ci: cold compile did not miss+store:" >&2
  cat "$work/cold.err" >&2
  exit 1
}
grep -q "hits 1  misses 0" "$work/warm.err" || {
  echo "engine ci: warm vm compile did not hit the cache:" >&2
  cat "$work/warm.err" >&2
  exit 1
}

# the vm must reproduce the machine's output on every variant (speccc
# stats exits 1 on any divergence)
"$speccc" stats "$src" > /dev/null

# frame-scoped semantic ALAT under chaos invalidation and flushes
plain="$("$speccc" run --mode none "$frames" 2> /dev/null)"
faulted="$("$speccc" run --mode heuristic --faults inv=50000,flush=64 \
           "$frames" 2> "$work/frames.err")"
[ "$plain" = "$faulted" ] || {
  echo "engine ci: faulted $frames output differs from the unoptimized run" >&2
  echo "plain: $plain" >&2; echo "faulted: $faulted" >&2
  cat "$work/frames.err" >&2
  exit 1
}

echo "engine ci ok"
