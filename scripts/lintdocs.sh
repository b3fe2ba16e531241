#!/usr/bin/env bash
# lintdocs.sh — documentation gate: every package in the module must carry a
# package comment (a doc comment immediately preceding its package clause in
# at least one non-test file), and the observability packages additionally
# require a doc comment on every exported top-level identifier. CI runs this
# alongside `make verify`; run it locally via `make lintdocs`.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
while IFS= read -r dir; do
    rel="${dir#"$PWD"/}"
    ok=0
    nontest=0
    for f in "$dir"/*.go; do
        [ -e "$f" ] || continue
        case "$f" in *_test.go) continue ;; esac
        nontest=1
        # A package comment ends on the line directly above the package
        # clause: either a // line or the closing */ of a block comment.
        if awk '
            /^package[ \t]/ { if (prev ~ /^\/\// || prev ~ /\*\/[ \t]*$/) found = 1; exit }
            { prev = $0 }
            END { exit found ? 0 : 1 }
        ' "$f"; then
            ok=1
            break
        fi
    done
    # Test-only packages (e.g. the root benchmark harness) document
    # themselves in their _test.go files; skip them.
    if [ "$nontest" -eq 1 ] && [ "$ok" -eq 0 ]; then
        echo "lintdocs: package in $rel has no package comment" >&2
        fail=1
    fi
done < <(go list -f '{{.Dir}}' ./...)

# Exported-identifier gate for the public API surfaces: internal/obs and
# internal/report (the registry/report API other tools build on),
# internal/experiment (Config, its one validator and the fleet engine,
# the repo's front door), internal/broadcast plus
# internal/coherence (the scheme catalog docs/COHERENCE.md documents), and
# the live serving layer — internal/serve and the mccached/mcload binaries
# (the endpoint catalog docs/SERVING.md documents) — and internal/storage,
# the persistence engine docs/STORAGE.md documents. Every exported
# top-level declaration must carry a doc comment directly above it (same
# rule go doc applies).
for dir in internal/obs internal/report internal/experiment internal/broadcast internal/coherence internal/serve internal/storage cmd/mccached cmd/mcload; do
    for f in "$dir"/*.go; do
        [ -e "$f" ] || continue
        case "$f" in *_test.go) continue ;; esac
        if ! awk -v file="$f" '
            /^(func|type|const|var) [A-Z]/ || /^func \([^)]*\) [A-Z]/ {
                if (prev !~ /^\/\// && prev !~ /\*\/[ \t]*$/) {
                    printf "lintdocs: %s:%d: exported %s lacks a doc comment\n", file, NR, $0 > "/dev/stderr"
                    bad = 1
                }
            }
            { prev = $0 }
            END { exit bad ? 1 : 0 }
        ' "$f"; then
            fail=1
        fi
    done
done

if [ "$fail" -ne 0 ]; then
    echo "lintdocs: FAIL" >&2
    exit 1
fi
echo "lintdocs: OK (all packages documented)"
