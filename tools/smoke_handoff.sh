#!/usr/bin/env bash
# Keyless-handoff smoke test: the data owner hands the server a data dir,
# and the server holds no key and no seed.
#
#   1. An embedded mope_shell (the data owner: it encrypts TPC-H lineitem)
#      answers an encrypted range query and writes its encrypted catalog
#      into a fresh data dir with `\snapshot DIR`.
#   2. mope_serverd --data-dir DIR serves that dir without --tpch or a
#      seed, i.e. without anything that could derive the key.
#   3. mope_shell --connect runs the same query over TCP; the answer must
#      equal the embedded one.
#   4. A second `\snapshot DIR` into the now-populated dir must fail
#      cleanly with exit status 1, and --data-dir alone on an empty dir
#      must exit 2 without creating any storage file there.
#
# Usage: tools/smoke_handoff.sh [BUILD_DIR]   (default: build)

set -eu

BUILD_DIR="${1:-build}"
SERVERD="$BUILD_DIR/tools/mope_serverd"
MOPE_SHELL="$BUILD_DIR/examples/example_mope_shell"
for bin in "$SERVERD" "$MOPE_SHELL"; do
  if [ ! -x "$bin" ]; then
    echo "smoke_handoff: missing binary $bin (build first)" >&2
    exit 1
  fi
done

work_dir="$(mktemp -d)"
data_dir="$work_dir/data"
server_log="$work_dir/server.log"
server_pid=""
cleanup() {
  [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
  [ -n "$server_pid" ] && wait "$server_pid" 2>/dev/null || true
  rm -rf "$work_dir"
}
trap cleanup EXIT

QUERY='SELECT COUNT(*) FROM lineitem WHERE l_shipdate BETWEEN 100 AND 400'

# The answer's data lines: the header, separator and count rows, without
# the traffic line (fake-query counts are not part of the answer).
answer() { grep -v '^\[traffic' | grep -v '^$'; }

# --- 1. Data owner: embedded answer, then the handoff. ----------------------
embedded="$("$MOPE_SHELL" -c "$QUERY" | answer)"
echo "$embedded"
echo "$embedded" | grep -q '^(1 rows)$' || {
  echo "smoke_handoff: embedded query did not return one row" >&2
  exit 1
}
exported="$("$MOPE_SHELL" -c "\\snapshot $data_dir")"
echo "$exported"
echo "$exported" | grep -q "^wrote encrypted catalog to $data_dir\$" || {
  echo "smoke_handoff: \\snapshot did not write the data dir" >&2
  exit 1
}

# --- 2. Keyless daemon: --data-dir only, no --tpch, no --seed. --------------
"$SERVERD" --data-dir "$data_dir" --port 0 2>"$server_log" &
server_pid=$!
port=""
for _ in $(seq 1 300); do
  port="$(sed -n 's/.*event=listening .*port=\([0-9][0-9]*\).*/\1/p' \
          "$server_log" | head -n 1)"
  [ -n "$port" ] && break
  if ! kill -0 "$server_pid" 2>/dev/null; then
    echo "smoke_handoff: keyless daemon exited during startup" >&2
    cat "$server_log" >&2
    exit 1
  fi
  sleep 0.1
done
if [ -z "$port" ]; then
  echo "smoke_handoff: keyless daemon never started listening" >&2
  cat "$server_log" >&2
  exit 1
fi
grep -q 'event=recovered tables=1' "$server_log" || {
  echo "smoke_handoff: daemon did not open the handed-over table" >&2
  cat "$server_log" >&2
  exit 1
}
echo "smoke_handoff: keyless daemon up on port $port"

# --- 3. Same query over TCP: identical answer. ------------------------------
remote="$("$MOPE_SHELL" --connect "127.0.0.1:$port" -c "$QUERY" | answer)"
echo "$remote"
if [ "$remote" != "$embedded" ]; then
  echo "smoke_handoff: remote answer differs from the embedded one" >&2
  exit 1
fi
echo "smoke_handoff: remote answer matches the embedded one"

kill "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""

# --- 4. Refusals. -----------------------------------------------------------
rc=0
again="$("$MOPE_SHELL" -c "\\snapshot $data_dir")" || rc=$?
echo "$again"
if [ "$rc" -ne 1 ] || ! echo "$again" | grep -q '^error: already exists: '; then
  echo "smoke_handoff: second \\snapshot into a populated dir exited $rc," \
       "want 1 and 'error: already exists'" >&2
  exit 1
fi
rc=0
"$SERVERD" --data-dir "$work_dir/empty" --port 0 2>"$server_log" || rc=$?
if [ "$rc" -ne 2 ] || ! grep -q 'holds no tables' "$server_log"; then
  echo "smoke_handoff: --data-dir on an empty dir exited $rc, want 2" >&2
  cat "$server_log" >&2
  exit 1
fi
for leftover in pages.db wal.log; do
  if [ -e "$work_dir/empty/$leftover" ]; then
    echo "smoke_handoff: the refused dir gained $leftover" >&2
    exit 1
  fi
done
echo "smoke_handoff: populated and empty dirs refused cleanly"
echo "smoke_handoff: OK"
