#!/usr/bin/env bash
# Which src/ code does the project's own traffic reach?
#
#   tools/traffic_coverage.sh [BUILD_DIR]     (default: build-coverage)
#
# Builds src/, the benches and the examples with --coverage into
# BUILD_DIR, and a second dpubench from dpubench/CMakeLists.txt into
# BUILD_DIR/dpubench (never .bench_build/; nothing under dpubench/ is
# touched). Then runs the traffic:
#
#   - every bench with --smoke;
#   - bench_serving's wedge, closed-loop and fault-sweep variants;
#   - bench_board --skew-step, bench_rack --outage, and both benches
#     with --faults;
#   - the three examples;
#   - all four dpubench workloads (--seed 1 --seconds 1 --trace 1).
#
# Tests are not traffic: a src/ function that only a test calls is
# reported. A run that exits non-zero (a failed bench gate, say) is
# noted and the sweep goes on; its counters still count.
#
# Prints the instrumented src/ line total and every src/ function
# with zero hits (file:line name), and writes that list to
# BUILD_DIR/zero_hit_functions.txt.

set -u -o pipefail

ROOT=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
OUT=$(realpath -m "${1:-$ROOT/build-coverage}")
JOBS=${JOBS:-4}
FLAGS=(-DCMAKE_BUILD_TYPE=Debug
       -DCMAKE_CXX_FLAGS=--coverage
       -DCMAKE_EXE_LINKER_FLAGS=--coverage)

cmake -S "$ROOT" -B "$OUT" "${FLAGS[@]}" > /dev/null || exit 1
cmake --build "$OUT" -j "$JOBS" --target \
    $(cd "$ROOT/bench" && ls bench_*.cc | sed 's/\.cc$//') \
    quickstart sql_offload log_analytics > /dev/null || exit 1
cmake -S "$ROOT/dpubench" -B "$OUT/dpubench" "${FLAGS[@]}" \
    > /dev/null || exit 1
cmake --build "$OUT/dpubench" -j "$JOBS" > /dev/null || exit 1

# Counters accumulate across runs; start from zero.
find "$OUT" -name '*.gcda' -delete

failed=0
run() {
    echo "== $*" >&2
    if ! "$@" > /dev/null 2>&1; then
        echo "   (exit non-zero; counted anyway)" >&2
        failed=$((failed + 1))
    fi
}

B="$OUT/bench"
for b in "$B"/bench_*; do
    run "$b" --smoke
done
run "$B/bench_serving" --smoke --wedge 1
run "$B/bench_serving" --smoke --wedge 1 --attempts 2
run "$B/bench_serving" --smoke --closed 8 --jobs 24
run "$B/bench_serving" --smoke --fault-sweep
run "$B/bench_board" --smoke --skew-step
run "$B/bench_board" --smoke \
    --faults 'link.drop@p=0.05;link.delay@p=0.1,mag=2000000'
run "$B/bench_rack" --smoke --outage
outage='rack.boardDown@p=1,unit=0,from=2000000000,to=5000000000'
run "$B/bench_rack" --smoke --faults "$outage;rack.netDrop@p=0.05"
for e in quickstart sql_offload log_analytics; do
    run "$OUT/examples/$e"
done
for w in chip-serve board-sql board-skew rack-skew; do
    run "$OUT/dpubench/dpubench" --workload "$w" --seed 1 \
        --seconds 1 --trace 1 --spans "$OUT/spans-$w.json"
done

# gcov's JSON names each function once per object that compiled it
# (inline header code appears in many); a function is zero-hit only
# when no object ever ran it, and a line counts as run when any
# object ran it.
python3 - "$ROOT" "$OUT" <<'EOF'
import gzip, json, os, subprocess, sys, tempfile

root, out = sys.argv[1], sys.argv[2]
src = os.path.join(root, "src") + os.sep
funcs = {}  # (file, line, name) -> hits
lines = {}  # (file, line) -> hits
with tempfile.TemporaryDirectory() as tmp:
    for dirpath, _, names in os.walk(out):
        for n in names:
            if not n.endswith(".gcda"):
                continue
            subprocess.run(["gcov", "--json-format", "-o", dirpath,
                            os.path.join(dirpath, n)], cwd=tmp,
                           stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
            for g in os.listdir(tmp):
                with gzip.open(os.path.join(tmp, g)) as f:
                    doc = json.load(f)
                os.remove(os.path.join(tmp, g))
                for fi in doc["files"]:
                    path = os.path.realpath(
                        os.path.join(doc["current_working_directory"],
                                     fi["file"]))
                    if not path.startswith(src):
                        continue
                    rel = os.path.relpath(path, root)
                    for fn in fi["functions"]:
                        k = (rel, fn["start_line"], fn["demangled_name"])
                        funcs[k] = funcs.get(k, 0) + fn["execution_count"]
                    for ln in fi["lines"]:
                        k = (rel, ln["line_number"])
                        lines[k] = lines.get(k, 0) + ln["count"]

ran = sum(1 for c in lines.values() if c)
zero = sorted(k for k, c in funcs.items() if c == 0)
print(f"src lines run: {ran} of {len(lines)} instrumented")
print(f"src functions with zero hits: {len(zero)} of {len(funcs)}")
with open(os.path.join(out, "zero_hit_functions.txt"), "w") as f:
    for rel, line, name in zero:
        row = f"{rel}:{line} {name}"
        print(row)
        f.write(row + "\n")
EOF
echo "runs that exited non-zero: $failed" >&2
