#!/bin/sh
# telemetrysmoke — end-to-end gate for the live telemetry exporter, run from
# `make telemetrysmoke` (which follows it with the ≤2% no-client overhead
# guard and the 0-allocs/step pins).
#
# A real scorpiosim run serves telemetry on an ephemeral port; the script
# discovers the bound address from the exporter's stderr announcement, curls
# /healthz and /metrics (validating the OpenMetrics shape), attaches the real
# scorpiotop dashboard for one frame rendered from /metrics, then waits for
# the run to finish and proves shutdown released the port.
set -eu

GO=${GO:-go}
DIR=$(mktemp -d /tmp/scorpio-telemetrysmoke.XXXXXX)
# Preserve the script's own exit status across the cleanup commands (a bare
# `kill ""` would overwrite it in dash).
trap 'st=$?; { [ -n "$SIM" ] && kill "$SIM"; rm -rf "$DIR"; } 2>/dev/null; exit $st' EXIT
SIM=

$GO build -o "$DIR/scorpiosim" ./cmd/scorpiosim
$GO build -o "$DIR/scorpiotop" ./cmd/scorpiotop

# Create the log first: the backgrounded shell opens its redirections only
# after the fork, and the first poll below may run before that.
: >"$DIR/stderr.log"
"$DIR/scorpiosim" -bench fft -work 4000 -warmup 100 \
    -telemetry 127.0.0.1:0 -telemetry-interval 256 \
    >"$DIR/stdout.log" 2>"$DIR/stderr.log" &
SIM=$!

# The exporter announces its bound address on stderr (ephemeral :0 ports are
# only knowable this way).
ADDR=
i=0
while [ $i -lt 100 ]; do
    ADDR=$(sed -n 's#^scorpio: telemetry listening on http://##p' "$DIR/stderr.log" | head -n 1)
    [ -n "$ADDR" ] && break
    kill -0 "$SIM" 2>/dev/null || { echo "telemetrysmoke: sim exited before announcing telemetry"; cat "$DIR/stderr.log"; exit 1; }
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$ADDR" ]; then
    echo "telemetrysmoke: exporter never announced its address"
    cat "$DIR/stderr.log"
    exit 1
fi
echo "telemetrysmoke: exporter at $ADDR"

curl -fsS "http://$ADDR/healthz" | grep -q '^ok$' \
    || { echo "telemetrysmoke: /healthz did not answer ok"; exit 1; }

curl -fsS "http://$ADDR/metrics" >"$DIR/metrics.txt"
grep -q '^scorpio_cycle ' "$DIR/metrics.txt" \
    || { echo "telemetrysmoke: /metrics lacks scorpio_cycle"; exit 1; }
grep -q '^scorpio_run{label=' "$DIR/metrics.txt" \
    || { echo "telemetrysmoke: /metrics lacks the run label"; exit 1; }
grep -q '^# EOF$' "$DIR/metrics.txt" \
    || { echo "telemetrysmoke: /metrics exposition not terminated by # EOF"; exit 1; }

# The real dashboard polls /metrics until a sample tick has been published,
# renders one frame from it, then detaches.
"$DIR/scorpiotop" -once -timeout 60s "$ADDR" >"$DIR/frame.txt"
grep -q 'cycles/s' "$DIR/frame.txt" \
    || { echo "telemetrysmoke: scorpiotop rendered no throughput line"; cat "$DIR/frame.txt"; exit 1; }
echo "telemetrysmoke: scorpiotop frame:"
sed 's/^/    /' "$DIR/frame.txt"

wait "$SIM"
STATUS=$?
SIM=
[ $STATUS -eq 0 ] || { echo "telemetrysmoke: sim exited with status $STATUS"; cat "$DIR/stderr.log"; exit 1; }

# Shutdown must have released the port: a fresh connection is refused.
if curl -fsS --max-time 2 "http://$ADDR/healthz" >/dev/null 2>&1; then
    echo "telemetrysmoke: exporter still answering after the run finished"
    exit 1
fi

echo "telemetrysmoke: ok"
