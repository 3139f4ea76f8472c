#!/bin/sh
# @ci smoke for the speculative-safety subsystem: the checker must
# CONFIRM the leaky cipher kernel (and --safety strict must fail its
# compile), pass the constant-time kernel under strict, and deopt-based
# recovery under forced ALAT flushes must actually exercise the deopt
# path.  Malformed safety/recovery flag spellings must die with a
# non-zero exit and a one-line usage hint, never compile anyway,
# malformed source must exit 2 naming the offending line, and a bad
# cache directory or entry cap must exit 2 naming the flag (a refused
# serve leaves no socket file).
set -eu

speccc="$1"
leaky="$2"
ct="$3"

work="$(mktemp -d -t speccc-safety-ci-XXXXXX)"
trap 'rm -rf "$work"' EXIT

# -- checker verdicts ------------------------------------------------

"$speccc" stats --safety report "$leaky" > "$work/leaky.out" 2>&1 || {
  echo "safety ci: report mode must not fail the compile" >&2
  exit 1
}
grep -q "CONFIRMED spec-addr round:spec-addr:(sbox + (idx \* 8))#0" \
  "$work/leaky.out" || {
  echo "safety ci: leaky kernel missing the confirmed site:" >&2
  cat "$work/leaky.out" >&2
  exit 1
}
grep -q "safety: leaks" "$work/leaky.out" || {
  echo "safety ci: leaky kernel not flagged as leaking" >&2
  exit 1
}

if "$speccc" stats --safety strict "$leaky" > /dev/null 2>&1; then
  echo "safety ci: strict mode accepted the leaky kernel" >&2
  exit 1
fi

"$speccc" stats --safety strict "$ct" > "$work/ct.out" 2>&1 || {
  echo "safety ci: strict mode rejected the constant-time kernel:" >&2
  cat "$work/ct.out" >&2
  exit 1
}
grep -q "safety: safe" "$work/ct.out" || {
  echo "safety ci: constant-time kernel not flagged safe" >&2
  exit 1
}

# -- deopt recovery under forced interference ------------------------

"$speccc" run --mode heuristic --recover deopt \
  --faults flush=16 "$leaky" > "$work/deopt.out" 2>&1 || {
  echo "safety ci: deopt recovery run failed:" >&2
  cat "$work/deopt.out" >&2
  exit 1
}
grep -q "deopts=[1-9]" "$work/deopt.out" || {
  echo "safety ci: forced flushes never exercised the deopt path:" >&2
  cat "$work/deopt.out" >&2
  exit 1
}

# -- error paths must exit non-zero with a usage hint ----------------

expect_fail() {
  what="$1"; shift
  if "$@" > "$work/err.out" 2>&1; then
    echo "safety ci: $what exited zero" >&2
    exit 1
  fi
  grep -qi "usage\|invalid value\|unknown option" "$work/err.out" || {
    echo "safety ci: $what gave no usage hint:" >&2
    cat "$work/err.out" >&2
    exit 1
  }
}

expect_fail "bad --safety spelling" \
  "$speccc" stats --safety bogus "$leaky"
expect_fail "bad --recover spelling" \
  "$speccc" run --recover bogus "$leaky"
expect_fail "unknown option" \
  "$speccc" stats --frobnicate "$leaky"
expect_fail "--recover deopt with --machine" \
  "$speccc" run --machine --recover deopt "$leaky"
expect_fail "--safety on a pre-optimization phase" \
  "$speccc" dump --phase ast --safety report "$leaky"

# malformed source is a user error: exit 2 with "speccc: FILE:LINE: ...",
# never an uncaught exception
expect_frontend_error() {
  what="$1"; file="$2"; line="$3"
  status=0
  "$speccc" run "$file" > "$work/err.out" 2>&1 || status=$?
  [ "$status" -eq 2 ] || {
    echo "safety ci: $what exited $status, not 2:" >&2
    cat "$work/err.out" >&2
    exit 1
  }
  grep -q "^speccc: $file:$line: " "$work/err.out" || {
    echo "safety ci: $what did not name line $line:" >&2
    cat "$work/err.out" >&2
    exit 1
  }
}

printf 'int main(){ return x; }\n' > "$work/undef.c"
expect_frontend_error "undefined variable" "$work/undef.c" 1
printf 'int main( { return 0; }\n' > "$work/syntax.c"
expect_frontend_error "syntax error" "$work/syntax.c" 1
printf 'int main(){ return 0; }\n\303\n' > "$work/byte.c"
expect_frontend_error "stray non-ASCII byte" "$work/byte.c" 2

# a bad cache option is a user error too: exit 2 naming the flag, and a
# refused serve must not leave its socket file behind
expect_usage_error() {
  what="$1"; flag="$2"; shift 2
  status=0
  "$@" > "$work/err.out" 2>&1 || status=$?
  [ "$status" -eq 2 ] || {
    echo "safety ci: $what exited $status, not 2:" >&2
    cat "$work/err.out" >&2
    exit 1
  }
  grep -q "^speccc: $flag" "$work/err.out" || {
    echo "safety ci: $what did not name $flag:" >&2
    cat "$work/err.out" >&2
    exit 1
  }
  [ ! -e "$work/svc.sock" ] || {
    echo "safety ci: $what left a socket file behind" >&2
    exit 1
  }
}

: > "$work/plain-file"
expect_usage_error "run --cache-dir on a regular file" --cache-dir \
  "$speccc" run --cache-dir "$work/plain-file" "$ct"
expect_usage_error "serve --cache-dir on a regular file" --cache-dir \
  "$speccc" serve --socket "$work/svc.sock" --cache-dir "$work/plain-file"
expect_usage_error "serve --cache-dir under a missing directory" \
  --cache-dir \
  "$speccc" serve --socket "$work/svc.sock" --cache-dir "$work/missing/sub"
expect_usage_error "serve --max-entries 0" --max-entries \
  "$speccc" serve --socket "$work/svc.sock" --cache-dir "$work/cache" \
  --max-entries 0

echo "safety ci ok"
