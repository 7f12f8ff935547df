#!/usr/bin/env bash
# recraftd_refuses.sh <recraftd> [recraftd args...]
#
# Boot-refusal check: runs recraftd against a fresh temp data directory and
# a one-line phonebook (node 1 on loopback), with the given extra
# arguments, and passes only if the daemon refuses with the usage exit
# code 2 before serving. A daemon that boots instead is stopped after 10 s
# and the check fails.
set -u

RECRAFTD=${1:?usage: recraftd_refuses.sh <recraftd> [recraftd args...]}
shift

WORK=$(mktemp -d -t recraftd_refuses.XXXXXX)
trap 'rm -rf "$WORK"' EXIT
echo "1 127.0.0.1:$((17000 + RANDOM % 2000))" > "$WORK/hosts.txt"

timeout 10 "$RECRAFTD" --hosts "$WORK/hosts.txt" --data "$WORK/data" "$@"
code=$?
if [ "$code" -ne 2 ]; then
  echo "recraftd_refuses: expected exit 2, got $code (args: $*)" >&2
  exit 1
fi
echo "recraftd_refuses: refused with exit 2 (args: $*)"
