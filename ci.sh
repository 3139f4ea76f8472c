#!/bin/sh
# CI entry point: build, run the full test suite, then smoke-test the
# speccc driver (machine counters + per-pass timings + inter-pass
# verification) on one workload kernel.
#
# Same steps as `dune build @ci`, runnable standalone.
set -eu

cd "$(dirname "$0")"

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== speccc stats smoke test =="
tmp="$(mktemp -t speccc-ci-XXXXXX.c)"
trap 'rm -f "$tmp"' EXIT
cat > "$tmp" <<'EOF'
int A[64];
int total;
int main() {
  int i; i = 0;
  while (i < 64) { A[i] = i * 3; i = i + 1; }
  total = 0;
  i = 0;
  while (i < 64) { total = total + A[i]; i = i + 1; }
  print_int(total);
  return 0;
}
EOF
dune exec bin/speccc.exe -- stats --timings --verify-each "$tmp"

echo "== speccc misspeculation stress smoke (--faults) =="
# Deterministic fault injection through the CLI: chaos invalidation,
# periodic flushes and an adversarial profile on the same kernel; the
# program output must stay correct under every fault source.
dune exec bin/speccc.exe -- run --machine --mode profile \
  --faults "flush=64,inv=100000,adv=invert" --stress-seed 7 "$tmp"

echo "== persistent FDO smoke (profile store + compile cache) =="
# Record two training profiles, merge them with decay, stale-check the
# merged store against the source, then compile twice through the
# content-addressed cache: the warm compile must hit (zero passes run)
# and print the same program output.  On the committed smoke kernel the
# recorded profile must also match the pinned test/smoke.sprof byte for
# byte.
sh test/ci_fdo.sh _build/default/bin/speccc.exe "$tmp"
sh test/ci_fdo.sh _build/default/bin/speccc.exe test/smoke.c test/smoke.sprof

echo "== execution-engine smoke (vm cache miss, then hit) =="
# A cold compile through the compile cache must miss and store, and a
# warm one must hit — executing bytecode lowered from the cached
# program — and print the same output.  The vm must reproduce the
# machine's output on every pipeline variant.  A recursive kernel whose
# every activation arms the semantic ALAT then runs under injected
# faults and must print its unoptimized output.
sh test/ci_engine.sh _build/default/bin/speccc.exe "$tmp" test/alat_frames.c

echo "== speculative-safety smoke (--safety + --recover deopt) =="
# The taint checker must CONFIRM the leaky cipher kernel (and --safety
# strict must fail its compile), pass the constant-time kernel under
# strict, deopt-based recovery under forced flushes must actually
# deoptimize, malformed safety/recovery flags must exit non-zero with a
# usage hint, malformed source (50 seeded mutants of the kernels among
# it) must exit 2 naming the line, a program that faults when it runs
# must exit 2 naming its runtime error, and a bad cache directory or
# --socket path must exit 2 naming the flag (a SIGKILLed daemon's
# leftover socket is replaced on restart, a live daemon's is not).
sh test/ci_safety.sh _build/default/bin/speccc.exe \
  test/safety_smoke.c test/safety_ct.c \
  _build/default/test/mutate/gen_mutants.exe

echo "== compile-service smoke (daemon + client + drift recompile) =="
# Start the compile daemon on a private socket: three concurrent
# same-key clients must cost exactly one cold compile (cross-wakeup
# single flight), then drive it through the client subcommands: cold
# compile, warm compile (byte-identical), report-profile past the drift
# threshold (background recompile + artifact swap), stats, a malformed
# compile that must be refused without killing the daemon, clean
# shutdown.
sh test/ci_service.sh _build/default/bin/speccc.exe "$tmp"

echo "== bench harness argument check =="
# An unknown flag or table must fail the harness with exit 2, not run
# the default sweep: the removed engine, shards, backend, micro,
# compile-bench and json-file options and the removed compile and
# engines tables are the likeliest leftovers.  The removed serve option
# must fail before the daemon binds its socket.
for args in "--engine vm" "--traffic --shards 2" "--backend both" "--micro" \
  "--compile-bench" "--table compile" "--table engines" "--json-file x"; do
  # $args is split on purpose: each entry is a whole argument list
  status=0
  _build/default/bench/main.exe $args > /dev/null 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "bench/main.exe $args exited $status, not 2" >&2
    exit 1
  fi
done
sock="$(mktemp -u -t speccc-ci-XXXXXX.sock)"
if _build/default/bin/speccc.exe serve --shards 2 --socket "$sock" \
  > /dev/null 2>&1; then
  echo "speccc serve accepted the removed --shards flag" >&2
  exit 1
fi
if [ -e "$sock" ]; then
  echo "speccc serve --shards left a socket file behind" >&2
  rm -f "$sock"
  exit 1
fi

echo "== traffic-replay smoke (--traffic --quick --jobs 2) =="
# Spawns the compile daemon and replays a deterministic mixed
# cold/warm/report request stream against it; the harness hard-fails if
# any daemon-served compile diverges byte-for-byte from the offline
# pipeline.  (The quick sweep, its stress grid and the backends
# agreement gate run in `dune runtest`, as the test/bench_record.json
# golden.)
dune exec bench/main.exe -- --traffic --quick --jobs 2 > /dev/null

echo "== paired A/B runner smoke (bench/ab.sh HEAD --pairs 1) =="
# One pair of 0.1-second build runs of the working tree against HEAD:
# the runner must build both sides, parse every end-to-end metric and
# remove its worktree.  One pair never yields a verdict.
sh bench/ab.sh HEAD --pairs 1 --seconds 0.1

echo "== ci ok =="
