#!/bin/sh
# Fails when a function defined in a src/**/*.cpp is linked by no
# non-test binary and is not listed, with its reason, in
# tools/test_only_functions.txt, or when a listed function is linked
# by some non-test binary after all (or no longer exists).
#
# The non-test binaries are every program under bench/, tools/ and
# examples/ (micro_kernels only where google-benchmark is installed)
# plus perfbench, built at -O0 -g -ffunction-sections
# -fdata-sections and linked with -Wl,--gc-sections, so a function is
# "linked" iff some binary's code can reach it. Functions are named by
# their qualified name without the parameter list, anonymous-namespace
# helpers included: a name is listed when any of its overloads is
# unreached. Lambdas and other function-local entities go with their
# enclosing function.
#
#   tools/check_reach.sh [BUILD_DIR]        (default: build-reach)
#
# Each line of tools/test_only_functions.txt is
#   <qualified name> | <reason>
# with one of the reasons below; '#' lines and blank lines are skipped.
set -eu
cd "$(dirname "$0")/.."
out=${1:-build-reach}
list=tools/test_only_functions.txt
jobs=$(nproc 2>/dev/null || echo 2)
[ "$jobs" -gt 4 ] && jobs=4
flags="-O0 -g -ffunction-sections -fdata-sections"

cmake -S . -B "$out/root" -G "Unix Makefiles" -DCMAKE_BUILD_TYPE=None \
    -DCMAKE_CXX_FLAGS="$flags" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >/dev/null
cmake -S perfbench -B "$out/perfbench" -G "Unix Makefiles" \
    -DCMAKE_BUILD_TYPE=None -DCMAKE_CXX_FLAGS="$flags" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >/dev/null

targets=""
for src in bench/*.cpp tools/*.cpp examples/*.cpp; do
    name=$(basename "$src" .cpp)
    [ "$src" = bench/harness.cpp ] && continue
    [ "$name" = micro_kernels ] &&
        [ ! -d "$out/root/bench/CMakeFiles/micro_kernels.dir" ] && continue
    targets="$targets $name"
done
# shellcheck disable=SC2086 # one word per target
cmake --build "$out/root" -j "$jobs" --target c2m $targets >/dev/null
cmake --build "$out/perfbench" -j "$jobs" --target perfbench >/dev/null

# "<mangled>\t<defining file>" for every function symbol whose debug
# line points into a src/**/*.cpp; function-local entities (_ZZ),
# thunks and static initializers are left out.
functions() {
    nm --defined-only -l "$@" 2>/dev/null |
        awk -F'\t' '{
            split($1, f, " ")
            if (f[2] !~ /^[TtWw]$/ || f[3] !~ /^_Z(N|L|[0-9])/) next
            file = $2
            sub(/:[0-9]+.*$/, "", file)
            if (file ~ /\/src\/.*\.cpp$/) print f[3] "\t" file
        }'
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
functions $(find "$out/root/CMakeFiles/c2m.dir" -name '*.o') |
    sort -u >"$tmp/defined"
: >"$tmp/linked"
for name in $targets; do
    bin=$(find "$out/root" -type f -name "$name" -perm -u+x | head -n 1)
    [ -n "$bin" ] || { echo "not built: $name"; exit 1; }
    functions "$bin" >>"$tmp/linked"
done
functions "$out/perfbench/perfbench" >>"$tmp/linked"
sort -u "$tmp/linked" -o "$tmp/linked"

comm -23 "$tmp/defined" "$tmp/linked" | cut -f1 | c++filt -p |
    sort -u >"$tmp/unreached"

status=0
sed -e '/^#/d' -e '/^[[:space:]]*$/d' "$list" >"$tmp/entries"
while IFS= read -r line; do
    case "${line#* | }" in
    "reference model" | "white-box hook" | "debug printer" | \
        "test input" | "paper feature awaiting a caller") ;;
    *)
        echo "$list: no known reason: $line"
        status=1
        ;;
    esac
done <"$tmp/entries"
sed 's/ | .*//' "$tmp/entries" | sort -u >"$tmp/listed"

comm -23 "$tmp/unreached" "$tmp/listed" | while IFS= read -r fn; do
    echo "reached by no non-test binary and not in $list: $fn"
done | tee "$tmp/missing"
comm -13 "$tmp/unreached" "$tmp/listed" | while IFS= read -r fn; do
    echo "listed in $list but not test-only: $fn"
done | tee "$tmp/stale"
[ -s "$tmp/missing" ] || [ -s "$tmp/stale" ] && status=1
echo "$(wc -l <"$tmp/unreached") functions reached only by tests"
exit $status
