#!/usr/bin/env bash
# recraftd_refuses.sh <recraftd> <case>
#
# Boot-refusal check: runs recraftd against a fresh temp data directory and
# a one-line phonebook (node 1 on loopback), set up as <case> names, and
# passes only if the daemon refuses with the expected exit code before
# serving. A daemon that boots instead is stopped after 10 s and the check
# fails.
#
# Cases:
#   blank_without_cluster  blank --data and no --cluster: nothing to boot (2)
#   id_overflow            an --id beyond 32 bits would truncate into
#                          another node's id (2)
#   undecodable_wal        --data holds a WAL whose one record passes its CRC
#                          but does not decode (an older build's format):
#                          exit 1, and the WAL is left byte-for-byte intact
set -u

RECRAFTD=${1:?usage: recraftd_refuses.sh <recraftd> <case>}
CASE=${2:?usage: recraftd_refuses.sh <recraftd> <case>}

WORK=$(mktemp -d -t recraftd_refuses.XXXXXX)
trap 'rm -rf "$WORK"' EXIT
echo "1 127.0.0.1:$((17000 + RANDOM % 2000))" > "$WORK/hosts.txt"

case "$CASE" in
  blank_without_cluster)
    args=(--id 1)
    want=2
    ;;
  id_overflow)
    args=(--id 4294967297 --cluster 1)
    want=2
    ;;
  undecodable_wal)
    # One WAL frame: [u32 len = 1][u32 crc32 = 0xff000000][payload 0xff].
    # The CRC is that of the single payload byte, so the record is intact;
    # 0xff is no record type.
    mkdir -p "$WORK/data"
    printf '\001\000\000\000\000\000\000\377\377' > "$WORK/data/wal"
    args=(--id 1)
    want=1
    ;;
  *)
    echo "recraftd_refuses: unknown case '$CASE'" >&2
    exit 1
    ;;
esac

wal_before=""
[ -f "$WORK/data/wal" ] && wal_before=$(od -An -tx1 "$WORK/data/wal")

timeout 10 "$RECRAFTD" --hosts "$WORK/hosts.txt" --data "$WORK/data" "${args[@]}"
code=$?
if [ "$code" -ne "$want" ]; then
  echo "recraftd_refuses: $CASE: expected exit $want, got $code" >&2
  exit 1
fi
if [ -n "$wal_before" ] &&
   [ "$(od -An -tx1 "$WORK/data/wal" 2>/dev/null)" != "$wal_before" ]; then
  echo "recraftd_refuses: $CASE: the WAL changed on a refused boot" >&2
  exit 1
fi
echo "recraftd_refuses: $CASE: refused with exit $want"
