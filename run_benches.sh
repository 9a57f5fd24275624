#!/bin/sh
# Runs every benchmark binary, capturing combined output. Cheap benches
# first so partial runs still cover most artifacts. Serving latency and
# capacity are measured by perfbench (`python3 perfbench/run.py`), not here.
set -u
# Paths below are relative to the checkout this script lives in, so it
# runs the same from any working directory.
cd "$(dirname "$0")"
out=bench_output.txt
: > "$out"
# bench_ops also runs the thread-count sweep plus the kernel-ISA sweep
# (--kernels: scalar vs SIMD vs int8) and regenerates
# BENCH_tensor_ops.json (exits nonzero if any parallel kernel result is
# not bitwise identical to the serial run, if an EXACT-class SIMD
# kernel differs from scalar, or if the serving GEMM misses 2x).
echo "##### build/bench/bench_ops (thread + kernel sweep) #####" >> "$out"
build/bench/bench_ops --kernels --sweep-out BENCH_tensor_ops.json \
  >> "$out" 2>/dev/null
echo "" >> "$out"
for b in build/bench/bench_table3_datasets build/bench/bench_table4_concepts \
         build/bench/bench_fig2_showcase \
         build/bench/bench_fig3_dprime build/bench/bench_fig4_lambda \
         build/bench/bench_design_ablations build/bench/bench_complexity \
         build/bench/bench_table6_seqlen build/bench/bench_table5_ablation \
         build/bench/bench_table2; do
  echo "##### $b #####" >> "$out"
  "$b" >> "$out" 2>/dev/null
  echo "" >> "$out"
done
echo "ALL BENCHES DONE" >> "$out"
