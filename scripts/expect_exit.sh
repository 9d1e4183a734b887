#!/usr/bin/env bash
# Runs a command that must fail a specific way: exit status <status> and a
# stderr line matching <regex> (grep -E). Used by the bench failure ctests
# (bench/CMakeLists.txt): a full disk or a bad knob must end in a nonzero
# status and a message, never a crash or a silent exit 0.
#
#   usage: expect_exit.sh <status> <regex> <command> [args...]
set -uo pipefail

want=${1:?usage: expect_exit.sh <status> <regex> <command> [args...]}
pattern=${2:?usage: expect_exit.sh <status> <regex> <command> [args...]}
shift 2

err=$("$@" 2>&1 > /dev/null)
got=$?
if [ "$got" -ne "$want" ]; then
  echo "FAIL: $1 exited $got, expected $want; stderr:" >&2
  echo "$err" >&2
  exit 1
fi
if ! grep -Eq -- "$pattern" <<< "$err"; then
  echo "FAIL: $1 stderr does not match /$pattern/:" >&2
  echo "$err" >&2
  exit 1
fi
echo "OK: $1 exited $got with /$pattern/"
