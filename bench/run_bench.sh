#!/usr/bin/env bash
# Build Release, run the Figure 2 retrieval benchmarks, the store-scale
# benchmark, the replication benchmark, the connection-concurrency
# benchmark, and the admission soak, and record BENCH_fig2_get.json,
# BENCH_store_scale.json, BENCH_replication.json, BENCH_concurrency.json,
# and BENCH_soak.json at the repo root.
#
# Usage: bench/run_bench.sh [--quick]
#   --quick  fewer iterations/records and no latency gates (the ctest
#            smokes use the same mode), recorded under build-bench/ so the
#            root BENCH_*.json files keep full-run numbers; full runs
#            enforce the >=2x p50
#            retrieval gate, the store-scale speedup/sublinearity gates,
#            the replication lag/failover gates, the reactor's
#            5000-connection sustain + p99 budget gates, and the soak's
#            polite-tenant zero-shed + 2x p99 isolation gates.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${repo_root}/build-bench"
out_dir="${repo_root}"
mode_flags=()
fig2_args=()
if [[ "${1:-}" == "--quick" ]]; then
  mode_flags+=(--quick)
  # The installed google-benchmark takes a bare number of seconds.
  fig2_args+=(--benchmark_min_time=0.05)
  out_dir="${build_dir}"
fi

cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${build_dir}" -j "$(nproc)" \
  --target bench_fig2_get bench_hotpath bench_store_scale bench_replication \
           bench_concurrency bench_soak bench_cluster

# Google-benchmark series (baseline vs fast path per key spec), embedded
# verbatim into the final JSON by bench_hotpath.
fig2_json="$(mktemp)"
trap 'rm -f "${fig2_json}"' EXIT
"${build_dir}/bench/bench_fig2_get" \
  --benchmark_out="${fig2_json}" --benchmark_out_format=json \
  "${fig2_args[@]}"

"${build_dir}/bench/bench_hotpath" "${mode_flags[@]}" \
  --out "${out_dir}/BENCH_fig2_get.json" \
  --fig2-json "${fig2_json}"

echo "Recorded ${out_dir}/BENCH_fig2_get.json"

"${build_dir}/bench/bench_store_scale" "${mode_flags[@]}" \
  --out "${out_dir}/BENCH_store_scale.json"

echo "Recorded ${out_dir}/BENCH_store_scale.json"

"${build_dir}/bench/bench_replication" "${mode_flags[@]}" \
  --out "${out_dir}/BENCH_replication.json"

echo "Recorded ${out_dir}/BENCH_replication.json"

"${build_dir}/bench/bench_concurrency" "${mode_flags[@]}" \
  --out "${out_dir}/BENCH_concurrency.json"

echo "Recorded ${out_dir}/BENCH_concurrency.json"

"${build_dir}/bench/bench_soak" "${mode_flags[@]}" \
  --out "${out_dir}/BENCH_soak.json"

echo "Recorded ${out_dir}/BENCH_soak.json"

"${build_dir}/bench/bench_cluster" "${mode_flags[@]}" \
  --out "${out_dir}/BENCH_cluster.json"

echo "Recorded ${out_dir}/BENCH_cluster.json"
