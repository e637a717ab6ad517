#!/usr/bin/env bash
# Ratchet on library panic sites: count `unwrap()`, `expect(`, `panic!(`
# and `unreachable!(` in the non-test code of each `crates/*/src` (in
# every file, counting stops at its first `#[cfg(test)]`) and compare
# each crate's count with the committed baseline. A count that grows
# fails; a count that shrinks is reported so the baseline can follow it
# down.
#
#   bash ci/panic-sites.sh           # check against ci/panic-sites.baseline
#   bash ci/panic-sites.sh --write   # rewrite the baseline from the tree
set -euo pipefail
cd "$(dirname "$0")/.."
baseline=ci/panic-sites.baseline

count() {
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { live = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 }
        live { n += gsub(/unwrap\(\)|expect\(|panic!\(|unreachable!\(/, "&") }
        END { print n + 0 }'
}

current=$(for dir in crates/*/src; do
    name=${dir#crates/}
    echo "${name%/src} $(count "$dir")"
done)

if [[ "${1:-}" == "--write" ]]; then
    echo "$current" > "$baseline"
    echo "wrote $baseline"
    exit 0
fi

status=0
while read -r name now; do
    was=$(awk -v c="$name" '$1 == c { print $2 }' "$baseline")
    if [[ -z "$was" ]]; then
        echo "panic sites: $name has no baseline (run with --write)"
        status=1
    elif (( now > was )); then
        echo "panic sites: $name grew from $was to $now"
        status=1
    elif (( now < was )); then
        echo "panic sites: $name shrank from $was to $now (lower the baseline)"
    fi
done <<< "$current"
exit $status
