#!/usr/bin/env bash
# End-to-end smoke test: boot mellowd, run an observed + traced compare
# matrix through the HTTP API, and check the result payload is
# byte-identical across two daemon lifetimes — the determinism contract
# behind content addressing, exercised through the parallel job matrix
# and the shared simulation scheduler. The job's execution trace is
# fetched and validated as well-formed Chrome Trace Event Format.
# Then the durability path: a job admitted to a write-ahead job log,
# the daemon killed -9 mid-run, and a restarted daemon replaying the
# log to a byte-identical result; plus batch submission, the SSE event
# stream (curl -N and mellowbench -follow), scenario and experiment jobs
# observed and traced, and log compaction on a clean SIGTERM drain.
set -euo pipefail

cd "$(dirname "$0")/.."
go build -o /tmp/mellowd ./cmd/mellowd
go build -o /tmp/mellowbench ./cmd/mellowbench

ADDR=127.0.0.1:8078
BASE=http://$ADDR
# Run lengths keep the smoke under a minute while leaving the matrix
# slow enough (~1s wall) that the kill -9 below reliably lands mid-run;
# interval_ns exercises the observed path so the series bytes are
# compared too, and trace records the execution timelines served at
# /v1/jobs/{id}/trace.
BODY='{"kind":"compare","workloads":["gups","stream"],"policies":["Norm","BE-Mellow+SC"],"interval_ns":20000,"seed":7,"warmup":0,"detailed":3000000,"trace":true}'

start_daemon() {
  /tmp/mellowd -addr "$ADDR" -workers 2 -sim-budget 2 "$@" &
  DAEMON=$!
  for _ in $(seq 1 100); do
    curl -fsS "$BASE/healthz" >/dev/null 2>&1 && return
    sleep 0.1
  done
  echo "mellowd never became healthy" >&2
  exit 1
}

stop_daemon() {
  kill "$DAEMON" 2>/dev/null || true
  wait "$DAEMON" 2>/dev/null || true
}

# run_job submits BODY, polls to completion, and prints the
# content-addressed result payload. The finished job's id is left in
# JOB_ID so the caller can fetch its trace.
run_job() {
  sub=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$BODY" "$BASE/v1/jobs")
  id=$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' <<<"$sub")
  key=$(sed -n 's/.*"key":"\([0-9a-f]\{64\}\)".*/\1/p' <<<"$sub")
  [ -n "$id" ] && [ -n "$key" ] || { echo "bad submit response: $sub" >&2; exit 1; }
  JOB_ID=$id
  for _ in $(seq 1 600); do
    st=$(curl -fsS "$BASE/v1/jobs/$id")
    case $st in
      *'"state":"done"'*) curl -fsS "$BASE/v1/results/$key"; return ;;
      *'"state":"failed"'*) echo "job failed: $st" >&2; exit 1 ;;
    esac
    sleep 0.5
  done
  echo "job $id never finished" >&2
  exit 1
}

start_daemon
trap stop_daemon EXIT

# Admission limits hold over HTTP: a sub-floor interval_ns is a 400.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  -d '{"kind":"sim","workload":"stream","policy":"Norm","interval_ns":1}' "$BASE/v1/jobs")
[ "$code" = 400 ] || { echo "interval_ns floor not enforced (got $code)" >&2; exit 1; }

run_job >/tmp/mellow_e2e_run1.json

# The traced job serves its execution trace as a separate artifact;
# tracecheck requires well-formed Chrome Trace Event Format JSON with
# at least one event.
curl -fsS "$BASE/v1/jobs/$JOB_ID/trace" >/tmp/mellow_e2e_trace.json
go run ./scripts/tracecheck /tmp/mellow_e2e_trace.json

# A job submitted without trace has no trace artifact: expect 404.
code=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/jobs/$JOB_ID-nope/trace")
[ "$code" = 404 ] || { echo "unknown job trace not 404 (got $code)" >&2; exit 1; }

# A fresh daemon re-simulates from scratch; equal keys must yield equal
# bytes no matter which matrix cells finished first.
stop_daemon
start_daemon
run_job >/tmp/mellow_e2e_run2.json

cmp /tmp/mellow_e2e_run1.json /tmp/mellow_e2e_run2.json || {
  echo "results differ across daemon lifetimes" >&2
  exit 1
}
grep -q '"series"' /tmp/mellow_e2e_run1.json || {
  echo "observed job result carries no series" >&2
  exit 1
}

# ---- durability: kill -9 mid-run, replay from the write-ahead log ----
stop_daemon
WAL=/tmp/mellow_e2e_jobs.wal
rm -f "$WAL"
start_daemon -joblog "$WAL"

# Admit one job (the admit record is fsynced before the 202 comes back)
# and kill the daemon hard before the multi-second matrix can finish.
sub=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$BODY" "$BASE/v1/jobs")
key=$(sed -n 's/.*"key":"\([0-9a-f]\{64\}\)".*/\1/p' <<<"$sub")
id=$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' <<<"$sub")
[ -n "$key" ] && [ -n "$id" ] || { echo "bad submit response: $sub" >&2; exit 1; }
kill -9 "$DAEMON"
wait "$DAEMON" 2>/dev/null || true
[ -s "$WAL" ] || { echo "joblog empty after admitted job" >&2; exit 1; }

# A restarted daemon replays the log and re-runs the job to completion;
# the replayed result must be byte-identical to the undisturbed runs.
start_daemon -joblog "$WAL"
for _ in $(seq 1 600); do
  if curl -fsS "$BASE/v1/results/$key" >/tmp/mellow_e2e_replay.json 2>/dev/null; then
    break
  fi
  sleep 0.5
done
cmp /tmp/mellow_e2e_run1.json /tmp/mellow_e2e_replay.json || {
  echo "replayed result differs from the undisturbed run" >&2
  exit 1
}

# The replayed job kept its pre-crash id, and its SSE feed replays the
# full epoch series followed by the terminal done event.
curl -fsSN --max-time 30 "$BASE/v1/jobs/$id/events" >/tmp/mellow_e2e_events.txt
grep -q '^event: epoch$' /tmp/mellow_e2e_events.txt || {
  echo "event stream carries no epoch events" >&2
  exit 1
}
tail -n 4 /tmp/mellow_e2e_events.txt | grep -q '^event: done$' || {
  echo "event stream did not terminate with done" >&2
  exit 1
}
# mellowbench -follow consumes the same stream as JSON lines.
/tmp/mellowbench -follow "$id" -server "$BASE" >/tmp/mellow_e2e_follow.jsonl
grep -q '"type":"epoch"' /tmp/mellow_e2e_follow.jsonl || {
  echo "mellowbench -follow printed no epoch events" >&2
  exit 1
}

# Batch submission: two jobs, one decision — 202 when fresh, 200 when
# the repeat is answered entirely from the caches.
BATCH='{"jobs":[{"kind":"sim","workload":"stream","policy":"Norm","seed":7,"warmup":0,"detailed":100000},{"kind":"sim","workload":"gups","policy":"Norm","seed":7,"warmup":0,"detailed":100000}]}'
code=$(curl -s -o /tmp/mellow_e2e_batch.json -w '%{http_code}' -X POST \
  -H 'Content-Type: application/json' -d "$BATCH" "$BASE/v1/jobs:batch")
[ "$code" = 202 ] || { echo "fresh batch not 202 (got $code)" >&2; exit 1; }
bid=$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' /tmp/mellow_e2e_batch.json | head -1)
for _ in $(seq 1 600); do
  st=$(curl -fsS "$BASE/v1/jobs/$bid")
  case $st in *'"state":"done"'*) break ;; *'"state":"failed"'*) echo "batch job failed: $st" >&2; exit 1 ;; esac
  sleep 0.5
done
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  -H 'Content-Type: application/json' -d "$BATCH" "$BASE/v1/jobs:batch")
[ "$code" = 200 ] || { echo "repeat batch not 200 (got $code)" >&2; exit 1; }

# ---- scenario jobs: declarative documents through the same pipeline ----
# A scenario job carries its whole matrix in the document; the server
# rejects matrix fields on the request itself.
SCEN='{"kind":"scenario","scenario":{"name":"e2e-smoke","workloads":[{"name":"gups"}],"policies":["Norm","BE-Mellow+SC"],"overrides":{"seed":7,"llc_bytes":262144,"warmup_instructions":100000,"detailed_instructions":200000}}}'
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  -d "${SCEN%\}}, \"policy\": \"Norm\"}" "$BASE/v1/jobs")
[ "$code" = 400 ] || { echo "scenario with request-level policy not rejected (got $code)" >&2; exit 1; }

sub=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$SCEN" "$BASE/v1/jobs")
sid=$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' <<<"$sub")
skey=$(sed -n 's/.*"key":"\([0-9a-f]\{64\}\)".*/\1/p' <<<"$sub")
[ -n "$sid" ] && [ -n "$skey" ] || { echo "bad scenario submit response: $sub" >&2; exit 1; }
for _ in $(seq 1 600); do
  st=$(curl -fsS "$BASE/v1/jobs/$sid")
  case $st in
    *'"state":"done"'*) break ;;
    *'"state":"failed"'*) echo "scenario job failed: $st" >&2; exit 1 ;;
  esac
  sleep 0.5
done
curl -fsS "$BASE/v1/results/$skey" >/tmp/mellow_e2e_scenario.json
grep -q '"scenario"' /tmp/mellow_e2e_scenario.json || {
  echo "scenario result carries no scenario document" >&2
  exit 1
}
# Same document again: answered from the cache, same content address.
# (The cached answer is the full JobResult, which also embeds the
# scenario's run key — take the first, outer key.)
sub2=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$SCEN" "$BASE/v1/jobs")
skey2=$(grep -o '"key":"[0-9a-f]\{64\}"' <<<"$sub2" | head -1 | cut -d'"' -f4)
[ "$skey" = "$skey2" ] || { echo "scenario resubmit changed key: $skey vs $skey2" >&2; exit 1; }

# The same document observed (interval_ns) and traced runs through the
# same matrix path as compare jobs: its event stream ends in done, its
# trace is served, and its embedded scenario document — run key
# included — is the unobserved job's, byte for byte.
sub=$(curl -fsS -X POST -H 'Content-Type: application/json' \
  -d "${SCEN%\}}, \"interval_ns\": 500000, \"trace\": true}" "$BASE/v1/jobs")
oid=$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' <<<"$sub")
okey=$(sed -n 's/.*"key":"\([0-9a-f]\{64\}\)".*/\1/p' <<<"$sub")
[ -n "$oid" ] && [ -n "$okey" ] || { echo "bad observed scenario submit response: $sub" >&2; exit 1; }
curl -fsSN --max-time 60 "$BASE/v1/jobs/$oid/events" >/tmp/mellow_e2e_scenario_events.txt
tail -n 4 /tmp/mellow_e2e_scenario_events.txt | grep -q '^event: done$' || {
  echo "observed scenario event stream did not terminate with done" >&2
  exit 1
}
code=$(curl -s -o /tmp/mellow_e2e_scenario_trace.json -w '%{http_code}' "$BASE/v1/jobs/$oid/trace")
[ "$code" = 200 ] || { echo "observed scenario trace not served (got $code)" >&2; exit 1; }
curl -fsS "$BASE/v1/results/$okey" >/tmp/mellow_e2e_scenario_observed.json
embedded() { sed -n 's/.*"scenario":\({"scenario":.*\)}$/\1/p' "$1"; }
run_key() { embedded "$1" | sed -n 's/^{"scenario":"[^"]*","key":"\([0-9a-f]\{64\}\)".*/\1/p'; }
[ -n "$(run_key /tmp/mellow_e2e_scenario.json)" ] &&
  [ "$(run_key /tmp/mellow_e2e_scenario.json)" = "$(run_key /tmp/mellow_e2e_scenario_observed.json)" ] || {
  echo "observed scenario run key differs from the unobserved job's" >&2
  exit 1
}
cmp <(embedded /tmp/mellow_e2e_scenario.json) <(embedded /tmp/mellow_e2e_scenario_observed.json) || {
  echo "observed scenario document differs from the unobserved job's" >&2
  exit 1
}

# ---- experiment jobs: a paper artifact's scenario plan, same path ----
# fig18 plans three bank counts x two policies. Observed and traced, its
# event stream labels every epoch with one of its six cells and ends in
# done, its trace holds one timeline per cell, and its rendered report
# is the unobserved job's, byte for byte.
BODY='{"kind":"experiment","experiment":"fig18","warmup":0,"detailed":300000}'
run_job >/tmp/mellow_e2e_experiment.json
BODY='{"kind":"experiment","experiment":"fig18","warmup":0,"detailed":300000,"interval_ns":20000,"trace":true}'
run_job >/tmp/mellow_e2e_experiment_observed.json
curl -fsSN --max-time 60 "$BASE/v1/jobs/$JOB_ID/events" >/tmp/mellow_e2e_experiment_events.txt
tail -n 4 /tmp/mellow_e2e_experiment_events.txt | grep -q '^event: done$' || {
  echo "experiment event stream did not terminate with done" >&2
  exit 1
}
cells=$(grep '^data: .*"type":"epoch"' /tmp/mellow_e2e_experiment_events.txt |
  grep -o '"cell":-\?[0-9]*' | sort -u | tr '\n' ' ')
[ "$cells" = '"cell":0 "cell":1 "cell":2 "cell":3 "cell":4 "cell":5 ' ] || {
  echo "experiment epochs carry cells [$cells], want 0 through 5" >&2
  exit 1
}
curl -fsS "$BASE/v1/jobs/$JOB_ID/trace" >/tmp/mellow_e2e_experiment_trace.json
go run ./scripts/tracecheck /tmp/mellow_e2e_experiment_trace.json
sims=$(grep -o '"name":"process_name","ph":"M","ts":0,"pid":[0-9]*,"tid":0,"args":{"name":"sim ' \
  /tmp/mellow_e2e_experiment_trace.json | wc -l)
[ "$sims" -eq 6 ] || { echo "experiment trace has $sims sim processes, want 6" >&2; exit 1; }
output() { grep -o '"output":"[^"]*"' "$1"; }
[ -n "$(output /tmp/mellow_e2e_experiment.json)" ] &&
  cmp <(output /tmp/mellow_e2e_experiment.json) <(output /tmp/mellow_e2e_experiment_observed.json) || {
  echo "observed experiment report differs from the unobserved job's" >&2
  exit 1
}

# A clean SIGTERM drain finishes everything and compacts the log to
# empty — the next boot has nothing to replay.
stop_daemon
[ -f "$WAL" ] && [ ! -s "$WAL" ] || {
  echo "joblog not compacted to empty after clean drain ($(wc -c <"$WAL") bytes)" >&2
  exit 1
}

echo "e2e smoke OK: $(wc -c </tmp/mellow_e2e_run1.json) identical bytes across restarts and a kill -9 replay"
