#!/bin/sh
# @ci smoke for the threaded-code execution engine: run the same kernel
# under both interpreter engines (speccc itself hard-fails on any stdout
# disagreement), then run the vm engine again through the
# content-addressed compile cache and require the warm compile to hit —
# so the executed bytecode came straight out of the cached artifact.
# The third argument is a recursive kernel whose every activation arms
# the semantic ALAT: both engines run it under injected faults, with
# dead frames' entries reclaimed, and must print what the unoptimized
# program prints.
set -eu

speccc="$1"
src="$2"
frames="$3"

work="$(mktemp -d -t speccc-engine-ci-XXXXXX)"
trap 'rm -rf "$work"' EXIT

cold="$("$speccc" run --engine both --cache-dir "$work/cache" "$src" \
        2> "$work/cold.err")"
warm="$("$speccc" run --engine vm --cache-dir "$work/cache" "$src" \
        2> "$work/warm.err")"

[ "$cold" = "$warm" ] || {
  echo "engine ci: cached-bytecode vm output differs from cold tree+vm" >&2
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

# both engines must also reproduce the machine's output on every variant
"$speccc" stats --engine both "$src" > /dev/null

# frame-scoped semantic ALAT under chaos invalidation and flushes
plain="$("$speccc" run --mode none "$frames" 2> /dev/null)"
faulted="$("$speccc" run --mode heuristic --engine both \
           --faults inv=50000,flush=64 "$frames" 2> "$work/frames.err")"
[ "$plain" = "$faulted" ] || {
  echo "engine ci: faulted $frames output differs from the unoptimized run" >&2
  echo "plain: $plain" >&2; echo "faulted: $faulted" >&2
  cat "$work/frames.err" >&2
  exit 1
}

echo "engine ci ok"
