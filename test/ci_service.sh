#!/bin/sh
# @ci smoke for the compile service: start a daemon on a private socket,
# storm it with three concurrent same-key clients (the cross-wakeup
# single-flight registry must serve exactly one cold compile), then
# drive it through the client subcommands — cold compile, warm compile
# (byte-identical output), a profile-mode compile registering the unit
# in the FDO loop, report-profile past the drift threshold (must
# trigger a background recompile), a profile-mode compile served from
# the swapped artifact, stats (no protocol errors so far), then a
# compile of malformed source, which must be refused while the daemon
# keeps serving and counts exactly that one error — then shut it down
# cleanly and check the daemon exited zero.
set -eu

speccc="$1"
src="$2"

work="$(mktemp -d -t speccc-svc-ci-XXXXXX)"
sock="$work/svc.sock"
trap 'rm -rf "$work"' EXIT

"$speccc" serve --socket "$sock" --cache-dir "$work/cache" \
  --drift-threshold 0.05 --jobs 2 &
daemon=$!
# If anything below fails, don't leave the daemon behind.
trap 'kill "$daemon" 2> /dev/null || true; rm -rf "$work"' EXIT

# Same-key storm: three concurrent clients ask for one key; the
# single-flight registry must compile it exactly once (the others are
# joined, parked, or warm depending on arrival timing) and every client
# must get the same program.
for i in 1 2 3; do
  "$speccc" client compile --socket "$sock" --unit storm -m heuristic \
    "$src" > "$work/storm.$i.out" 2> "$work/storm.$i.err" &
  eval "storm_$i=\$!"
done
wait "$storm_1" "$storm_2" "$storm_3"
for i in 2 3; do
  cmp -s "$work/storm.1.out" "$work/storm.$i.out" || {
    echo "service ci: storm clients got different programs (1 vs $i)" >&2
    exit 1
  }
done
"$speccc" client stats --socket "$sock" > "$work/storm-stats.out"
grep -q "^cold 1$" "$work/storm-stats.out" || {
  echo "service ci: same-key storm cost more than one cold compile:" >&2
  cat "$work/storm-stats.out" >&2
  exit 1
}

"$speccc" client compile --socket "$sock" --unit smoke -m base \
  "$src" > "$work/cold.out" 2> "$work/cold.err"
grep -q "served: cold" "$work/cold.err" || {
  echo "service ci: first compile was not served cold:" >&2
  cat "$work/cold.err" >&2
  exit 1
}

"$speccc" client compile --socket "$sock" --unit smoke -m base \
  "$src" > "$work/warm.out" 2> "$work/warm.err"
grep -q "served: warm" "$work/warm.err" || {
  echo "service ci: repeat compile was not served warm:" >&2
  cat "$work/warm.err" >&2
  exit 1
}
cmp -s "$work/cold.out" "$work/warm.out" || {
  echo "service ci: warm program differs from cold" >&2
  exit 1
}

# Register the unit in the FDO loop: only profile-mode compiles bind a
# unit's source (a drift-triggered recompile reruns the unit's last
# profile compile, so the base compiles above leave unit state alone),
# and the drifted report below needs one to refresh.
"$speccc" client compile --socket "$sock" --unit smoke -m profile \
  "$src" > "$work/reg.out" 2> "$work/reg.err"
grep -q "served: cold" "$work/reg.err" || {
  echo "service ci: registering profile compile was not served cold:" >&2
  cat "$work/reg.err" >&2
  exit 1
}

"$speccc" profile record "$src" -o "$work/p.sprof" > /dev/null
"$speccc" client report-profile --socket "$sock" smoke "$work/p.sprof" \
  > "$work/report.out"
grep -q "recompiled yes" "$work/report.out" || {
  echo "service ci: drifted report did not trigger a recompile:" >&2
  cat "$work/report.out" >&2
  exit 1
}

"$speccc" client compile --socket "$sock" --unit smoke -m profile --exec \
  "$src" > "$work/prof.out" 2> "$work/prof.err"
grep -q "served: warm" "$work/prof.err" || {
  echo "service ci: profile compile missed the recompiled artifact:" >&2
  cat "$work/prof.err" >&2
  exit 1
}

"$speccc" client stats --socket "$sock" > "$work/stats.out"
grep -q "^errors 0$" "$work/stats.out" || {
  echo "service ci: daemon recorded protocol errors:" >&2
  cat "$work/stats.out" >&2
  exit 1
}
grep -q "^recompiles 1$" "$work/stats.out" || {
  echo "service ci: expected exactly one drift recompile:" >&2
  cat "$work/stats.out" >&2
  exit 1
}

# Malformed source in a stateless mode is lowered only inside the
# compile: the client must get an error, and the daemon must live on.
printf 'int main() { int x; x = ; return 0; }\n' > "$work/bad.c"
if "$speccc" client compile --socket "$sock" --unit bad -m base \
  "$work/bad.c" > "$work/bad.out" 2> "$work/bad.err"; then
  echo "service ci: malformed source compiled without an error" >&2
  exit 1
fi
"$speccc" client compile --socket "$sock" --unit smoke -m base \
  "$src" > "$work/after.out" 2> "$work/after.err"
grep -q "served: warm" "$work/after.err" || {
  echo "service ci: compile after a malformed one was not served warm:" >&2
  cat "$work/bad.err" "$work/after.err" >&2
  exit 1
}
"$speccc" client stats --socket "$sock" > "$work/stats.out"
grep -q "^errors 1$" "$work/stats.out" || {
  echo "service ci: expected exactly one error, for the malformed compile:" >&2
  cat "$work/stats.out" >&2
  exit 1
}

"$speccc" client shutdown --socket "$sock" > /dev/null
wait "$daemon" || {
  echo "service ci: daemon exited non-zero" >&2
  exit 1
}
trap 'rm -rf "$work"' EXIT

echo "service ci ok"
