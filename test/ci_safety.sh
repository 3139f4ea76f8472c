#!/bin/sh
# @ci smoke for the speculative-safety subsystem: the checker must
# CONFIRM the leaky cipher kernel (and --safety strict must fail its
# compile), pass the constant-time kernel under strict, and deopt-based
# recovery under forced ALAT flushes must actually exercise the deopt
# path.  Malformed safety/recovery flag spellings must die with a
# non-zero exit and a one-line usage hint, never compile anyway,
# malformed source (a few hand-written cases and 50 seeded mutants of
# the kernels) must exit 2 naming the offending line, a program that
# faults when it runs must exit 2 naming its runtime error, and a bad
# cache directory, entry cap or socket path must exit 2 naming the flag
# (a refused serve leaves no socket file, a refused socket path no cache
# directory, and a regular file at the socket path keeps its bytes).  A
# socket left by a daemon killed with SIGKILL is replaced on restart; a
# live daemon's socket is not.
set -eu

speccc="$1"
leaky="$2"
ct="$3"
gen_mutants="$4"

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
printf 'int main(){\n  int x; x = 1.2.3;\n  return x; }\n' > "$work/float.c"
expect_frontend_error "malformed float literal" "$work/float.c" 2
printf 'int main(){ return 99999999999999999999; }\n' > "$work/int.c"
expect_frontend_error "integer literal out of range" "$work/int.c" 1

# a program that fails when it runs (a memory fault, a bad builtin
# argument) is the user's error too: exit 2 with "speccc: FILE: runtime
# error: MSG", never an uncaught exception (exit 125).  Plain runs fail
# in the training run on the vm; --profile-in another program's store
# skips training, so the vm and the machine each meet the fault
expect_runtime_error() {
  what="$1"; file="$2"; msg="$3"; shift 3
  status=0
  "$speccc" run "$@" "$file" > "$work/err.out" 2>&1 || status=$?
  [ "$status" -eq 2 ] || {
    echo "safety ci: $what exited $status, not 2:" >&2
    cat "$work/err.out" >&2
    exit 1
  }
  grep -qx "speccc: $file: runtime error: $msg" "$work/err.out" || {
    echo "safety ci: $what did not report the runtime error:" >&2
    cat "$work/err.out" >&2
    exit 1
  }
}

printf 'int main(){ return 0; }\n' > "$work/other.c"
"$speccc" run --profile-out "$work/other.sprof" "$work/other.c" > /dev/null
printf 'int main() { int *p; p = 0; *p = 3; return 0; }\n' > "$work/null.c"
expect_runtime_error "null store, run -m none" "$work/null.c" \
  "store at invalid address 0x0" -m none
expect_runtime_error "null store, run --machine" "$work/null.c" \
  "store at invalid address 0x0" --machine
expect_runtime_error "null store on the vm, no training" "$work/null.c" \
  "store at invalid address 0x0" -m none --profile-in "$work/other.sprof"
expect_runtime_error "null store on the machine, no training" \
  "$work/null.c" "store at invalid address 0x0" \
  --machine --profile-in "$work/other.sprof"
printf 'int main() { print_int(rnd(0)); return 0; }\n' > "$work/rnd.c"
expect_runtime_error "rnd(0)" "$work/rnd.c" "rnd expects a positive bound"
printf 'int main() { int *p; p = (int*)4611686018427387896; return *p; }\n' \
  > "$work/far.c"
expect_runtime_error "load near max_int" "$work/far.c" \
  "load at invalid address 0x3ffffffffffffff8"
# malloc judges its size before rounding it, so one near max_int does
# not wrap to a cell, and a negative one is refused
printf 'int main() { int *p; p = (int*)malloc(4611686018427387903); p[0] = 5; print_int(p[0]); return 0; }\n' \
  > "$work/huge.c"
printf 'int main() { int *p; p = (int*)malloc(-16); p[0] = 7; print_int(p[0]); return 0; }\n' \
  > "$work/neg.c"
expect_runtime_error "malloc near max_int on the vm" "$work/huge.c" \
  "heap exhausted" -m none
expect_runtime_error "malloc near max_int on the machine" "$work/huge.c" \
  "heap exhausted" --machine --profile-in "$work/other.sprof"
expect_runtime_error "negative malloc on the vm" "$work/neg.c" \
  "malloc of a negative size" -m none
expect_runtime_error "negative malloc on the machine" "$work/neg.c" \
  "malloc of a negative size" --machine --profile-in "$work/other.sprof"

# 50 seeded token-level mutants of the workload kernels: each one lowers
# (exit 0) or is a located user error (exit 2, "speccc: FILE:LINE: "),
# never an uncaught exception (exit 125)
mkdir "$work/mutants"
"$gen_mutants" "$work/mutants" 50 1
for m in "$work"/mutants/*.c; do
  status=0
  "$speccc" dump --phase sir "$m" > "$work/err.out" 2>&1 || status=$?
  case $status in
    0) ;;
    2)
      grep -q "^speccc: $m:[0-9]*: " "$work/err.out" || {
        echo "safety ci: mutant $m exited 2 without naming a line:" >&2
        cat "$work/err.out" >&2
        exit 1
      } ;;
    *)
      echo "safety ci: mutant $m exited $status:" >&2
      cat "$work/err.out" >&2
      exit 1 ;;
  esac
done
[ "$(ls "$work/mutants" | wc -l)" -eq 50 ] || {
  echo "safety ci: expected 50 mutants" >&2
  exit 1
}

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

# --socket replaces only a socket: a regular file at the path is the
# user's, and a missing directory cannot be bound; both are refused
# before the cache directory is created (the timeout turns a daemon
# that starts anyway into a failure instead of a hang)
printf 'my notes\n' > "$work/notes.txt"
expect_usage_error "serve --socket on a regular file" --socket \
  timeout 20 "$speccc" serve --socket "$work/notes.txt" \
  --cache-dir "$work/cache-s"
[ "$(cat "$work/notes.txt")" = "my notes" ] || {
  echo "safety ci: serve --socket clobbered a regular file" >&2
  exit 1
}
expect_usage_error "serve --socket under a missing directory" --socket \
  timeout 20 "$speccc" serve --socket "$work/missing/svc.sock" \
  --cache-dir "$work/cache-s"
[ ! -e "$work/cache-s" ] || {
  echo "safety ci: a refused --socket created the cache directory" >&2
  exit 1
}

# a daemon killed with SIGKILL leaves its socket behind; a restart on
# the same path replaces it and serves
"$speccc" serve --socket "$work/svc.sock" --cache-dir "$work/cache" &
daemon=$!
trap 'kill "$daemon" 2> /dev/null || true; rm -rf "$work"' EXIT
"$speccc" client stats --socket "$work/svc.sock" > /dev/null
kill -9 "$daemon"
wait "$daemon" 2> /dev/null || true
[ -S "$work/svc.sock" ] || {
  echo "safety ci: the killed daemon left no socket to replace" >&2
  exit 1
}
"$speccc" serve --socket "$work/svc.sock" --cache-dir "$work/cache" &
daemon=$!
"$speccc" client stats --socket "$work/svc.sock" > "$work/restart.out" || {
  echo "safety ci: the restarted daemon did not answer stats" >&2
  exit 1
}
grep -q "^requests 1$" "$work/restart.out" || {
  echo "safety ci: unexpected stats from the restarted daemon:" >&2
  cat "$work/restart.out" >&2
  exit 1
}

# a second serve on a live daemon's socket is refused with exit 2 naming
# --socket, and the first daemon keeps its socket (the timeout turns a
# second daemon that takes the path over into a failure, not a hang)
status=0
timeout 20 "$speccc" serve --socket "$work/svc.sock" \
  --cache-dir "$work/cache-2" > "$work/err.out" 2>&1 || status=$?
[ "$status" -eq 2 ] || {
  echo "safety ci: serve on a live daemon's socket exited $status, not 2:" >&2
  cat "$work/err.out" >&2
  exit 1
}
grep -q "^speccc: --socket $work/svc.sock: " "$work/err.out" || {
  echo "safety ci: serve on a live daemon's socket did not name --socket:" >&2
  cat "$work/err.out" >&2
  exit 1
}
"$speccc" client stats --socket "$work/svc.sock" > /dev/null || {
  echo "safety ci: the first daemon lost its socket to a second serve" >&2
  exit 1
}
"$speccc" client shutdown --socket "$work/svc.sock" > /dev/null
wait "$daemon"

echo "safety ci ok"
