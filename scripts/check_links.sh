#!/usr/bin/env bash
# Fail on dead *relative* links in the repo's markdown files, and on
# serving docs that reference --flags the serving CLI no longer has.
#
# Link check: extracts every inline markdown link target, skips
# absolute URLs, mailto:, and pure in-page anchors, strips any
# #fragment, resolves the rest against the linking file's directory,
# and requires the target to exist. Usage: scripts/check_links.sh
# [file.md ...] (default: all tracked/on-disk *.md outside build
# directories).
#
# Flag check: every --flag token mentioned in the serving-facing docs
# (docs/SERVING.md, docs/SCHEDULING.md, docs/ARCHITECTURE.md,
# docs/PERFORMANCE.md) must be parsed somewhere in
# examples/llm_serving.cc (this covers the workload flags --trace-csv,
# --rate-profile, --burst, --background-trace, and --slo alongside the
# older ones), the shared bench harness (bench/common/bench_common.cc,
# for --fast/--csv/--floor), the throughput microbenchmark
# (bench/micro_serving_throughput.cc), or the workload
# drivers (bench/micro_diurnal.cc, bench/sweep_fleet.cc) — a doc
# referencing a flag the CLI dropped or never grew is as dead as a
# broken link. Flags of the paired perf comparison
# (scripts/perf_pairs.py) count too.
set -u

files=("$@")
if [ "${#files[@]}" -eq 0 ]; then
    while IFS= read -r f; do
        files+=("$f")
    done < <(find . -name '*.md' -not -path './build*/*' \
                 -not -path './.git/*' | sort)
fi

dead=0
for f in "${files[@]}"; do
    dir=$(dirname "$f")
    # Inline links/images: capture the (...) target of ](...), first
    # token only (drops optional "title" suffixes).
    while IFS= read -r target; do
        case "$target" in
        http://*|https://*|mailto:*|'#'*|'') continue ;;
        esac
        path="${target%%#*}"
        [ -z "$path" ] && continue
        if [ ! -e "$dir/$path" ]; then
            echo "dead link: $f -> $target"
            dead=1
        fi
    done < <(grep -oE '\]\(([^)[:space:]]+)' "$f" | sed 's/^](//')
done

root=$(cd "$(dirname "$0")/.." && pwd)
flag_srcs=("$root/examples/llm_serving.cc"
           "$root/bench/common/bench_common.cc"
           "$root/bench/micro_serving_throughput.cc"
           "$root/bench/micro_diurnal.cc"
           "$root/bench/sweep_fleet.cc"
           "$root/scripts/perf_pairs.py")
for doc in "$root/docs/SERVING.md" "$root/docs/SCHEDULING.md" \
           "$root/docs/ARCHITECTURE.md" "$root/docs/PERFORMANCE.md"; do
    [ -e "$doc" ] || continue
    while IFS= read -r flag; do
        found=0
        for src in "${flag_srcs[@]}"; do
            if grep -qF -- "\"$flag\"" "$src"; then
                found=1
                break
            fi
        done
        if [ "$found" -eq 0 ]; then
            echo "unknown flag: ${doc#"$root"/} references $flag," \
                 "absent from examples/llm_serving.cc and" \
                 "bench/common/bench_common.cc"
            dead=1
        fi
    done < <(grep -oE -- '--[a-z][a-z-]*' "$doc" | sort -u)
done

if [ "$dead" -ne 0 ]; then
    echo "FAIL: dead links or unknown flags found"
    exit 1
fi
echo "ok: all relative markdown links resolve and all documented" \
     "flags exist"
