#!/usr/bin/env bash
# Profile the simulator hot path: run BenchmarkSimulation with CPU and
# allocation profiling and print the top hot frames of each, so a
# performance change can see where the time and the garbage go before
# and after. It also prints each simulator package's flat share of CPU
# time, and the share spent under the sim=generator profiler label: the
# workload's trace generator, which runs on a goroutine of its own, off
# the simulation goroutine.
#
# Usage:
#   ./scripts/profile.sh             # profile BenchmarkSimulation, top 10
#   ./scripts/profile.sh Fig11 20    # another benchmark, top 20 frames
#
# Profiles land in ./profiles/ (git-ignored); inspect interactively with
#   go tool pprof -http=: profiles/cpu.pb.gz
set -euo pipefail

cd "$(dirname "$0")/.."

bench="${1:-Simulation}"
top="${2:-10}"
outdir=profiles
mkdir -p "$outdir"

go test -run '^$' -bench "Benchmark${bench}\$" -benchtime 3x \
  -cpuprofile "$outdir/cpu.pb.gz" -memprofile "$outdir/mem.pb.gz" .

echo
echo "=== top $top frames by CPU time ==="
go tool pprof -top -nodecount="$top" "$outdir/cpu.pb.gz" | tail -n +3

echo
echo "=== flat CPU share by package ==="
go tool pprof -top -nodefraction=0 -nodecount=1000000 "$outdir/cpu.pb.gz" 2>/dev/null |
  awk 'NF >= 6 && $2 ~ /%$/ {
    fn = $6
    if (fn ~ /^mellow\/internal\//) {
      pkg = substr(fn, 17); sub(/\..*/, "", pkg); pkg = "mellow/internal/" pkg
    } else if (fn ~ /^(runtime[.\/]|internal\/runtime\/)/) {
      pkg = "runtime"
    } else {
      pkg = "other"
    }
    share[pkg] += $2
  }
  END { for (p in share) printf "%7.2f%%  %s\n", share[p], p }' | sort -rn

echo
echo "=== CPU share under the sim=generator label (off the simulation goroutine) ==="
go tool pprof -top -nodecount=1 -tagfocus=sim=generator "$outdir/cpu.pb.gz" 2>/dev/null |
  sed -n 's/^Showing nodes accounting for \(.*\), \(.*\) of \(.*\) total$/\2  (\1 of \3)/p'

echo
echo "=== top $top frames by allocated objects ==="
go tool pprof -sample_index=alloc_objects -top -nodecount="$top" "$outdir/mem.pb.gz" | tail -n +3

echo
echo "profiles written to $outdir/ — drill down with: go tool pprof -http=: $outdir/cpu.pb.gz"
