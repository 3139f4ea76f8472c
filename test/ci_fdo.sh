#!/bin/sh
# @ci smoke for the persistent FDO subsystem: when given a pinned store
# (third argument), re-record the source's profile and require it byte
# for byte; then record two profile stores, merge them (with decay),
# stale-check the merged store against the source, and compile twice
# through the content-addressed cache, requiring the warm compile to hit
# with byte-identical program output.
#
#   sh test/ci_fdo.sh SPECCC SRC.c [PINNED.sprof]
set -eu

speccc="$1"
src="$2"
pinned="${3:-}"

work="$(mktemp -d -t speccc-fdo-ci-XXXXXX)"
trap 'rm -rf "$work"' EXIT

if [ -n "$pinned" ]; then
  "$speccc" profile record "$src" -o "$work/pinned.sprof" > /dev/null
  cmp "$pinned" "$work/pinned.sprof" || {
    echo "fdo ci: profile of $src differs from $pinned" >&2
    exit 1
  }
fi

"$speccc" profile record "$src" -o "$work/a.sprof" > /dev/null
"$speccc" profile record "$src" -o "$work/b.sprof" > /dev/null
"$speccc" profile merge -o "$work/m.sprof" --decay 0.9 \
  "$work/a.sprof" "$work/b.sprof" > /dev/null
"$speccc" profile show "$work/m.sprof" > /dev/null

rate="$("$speccc" profile stale-check "$work/m.sprof" "$src" \
        | grep match-rate)"
case "$rate" in
  *1.0000*) ;;
  *) echo "fdo ci: expected full self-match, got: $rate" >&2; exit 1 ;;
esac

cold="$("$speccc" run -m profile --profile-in "$work/m.sprof" \
        --cache-dir "$work/cache" "$src" 2> "$work/cold.err")"
warm="$("$speccc" run -m profile --profile-in "$work/m.sprof" \
        --cache-dir "$work/cache" "$src" 2> "$work/warm.err")"

[ "$cold" = "$warm" ] || {
  echo "fdo ci: warm output differs from cold" >&2
  echo "cold: $cold" >&2; echo "warm: $warm" >&2
  exit 1
}
grep -q "misses 1  stores 1" "$work/cold.err" || {
  echo "fdo ci: cold compile did not miss+store:" >&2
  cat "$work/cold.err" >&2
  exit 1
}
grep -q "hits 1  misses 0" "$work/warm.err" || {
  echo "fdo ci: warm compile did not hit the cache:" >&2
  cat "$work/warm.err" >&2
  exit 1
}

echo "fdo ci ok"
