#!/usr/bin/env sh
# Project lint: clang-tidy (profile in .clang-tidy) plus the custom
# concurrency and layering lints that clang-tidy has no check for. Drives itself off the
# compile database exported by CMake (CMAKE_EXPORT_COMPILE_COMMANDS=ON).
#
#   scripts/lint.sh [build-dir]     # default build dir: ./build
#
# The custom lints always run (plain python3). clang-tidy runs when it is
# on PATH and the compile database exists; the CI lint job guarantees both,
# so a local skip is a note, not a pass.
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

# ---------------------------------------------------------------------------
# Custom lints. Five rules:
#
# 1. No raw standard-library lock primitives outside common/mutex.hpp.
#    std::mutex & friends carry no thread-safety attributes, so code using
#    them is invisible to -Wthread-safety; everything must go through
#    common::mutex / common::mutex_lock / common::cond_var (or
#    common::spinlock / spin_guard), which do.
#
# 2. A file declaring a common::mutex or common::spinlock member must
#    contain at least one thread-safety annotation (GUARDED_BY / REQUIRES /
#    ACQUIRE / CAPABILITY...). A lock with no annotated contract protects
#    nothing the analysis can see — either annotate what it guards or
#    document why nothing needs it (and keep the lock out of the header).
#
# 3. Every memory_order_relaxed needs a justifying comment: a comment
#    containing the word "relaxed" on the same line or within the four
#    preceding lines. A covered relaxed line extends cover to relaxed
#    lines within the next four lines, so one comment may justify an
#    adjacent cluster ("relaxed (all stores below): ...").
#
# 4. __builtin_prefetch appears only under src/storage/. Prefetch hints
#    for rows and index buckets need address arithmetic on row ids and
#    keys; the storage API that owns valid row ids does it
#    (storage/prefetch.hpp), so no other layer computes such addresses.
#
# 5. fsync and fdatasync are called only in src/log/io.cpp. Every other
#    site calls log::checked_fsync, which stops the process when a sync
#    fails, so a failed sync can never turn into a durable ack.
# ---------------------------------------------------------------------------
python3 - <<'PY'
import pathlib
import re
import sys

SRC = pathlib.Path("src")
errors = []

RAW_PRIMITIVES = re.compile(
    r"std::(mutex|timed_mutex|recursive_mutex|shared_mutex|scoped_lock"
    r"|lock_guard|unique_lock|shared_lock|condition_variable(_any)?)\b")
LOCK_MEMBER = re.compile(
    r"^\s*(?:mutable\s+)?(?:quecc::)?common::(?:mutex|spinlock)\s+\w+")
ANNOTATION = re.compile(
    r"\b(GUARDED_BY|PT_GUARDED_BY|REQUIRES|ACQUIRE|RELEASE|EXCLUDES"
    r"|CAPABILITY|TRY_ACQUIRE)\b")
RELAXED = "memory_order_relaxed"
RELAXED_COMMENT = re.compile(r"//.*relaxed", re.IGNORECASE)
WINDOW = 4  # lines a justifying comment (or covered line) reaches forward

def code_part(line: str) -> str:
    """The line with any trailing // comment stripped (no block comments or
    string literals containing '//' in this codebase's hot paths; kept
    deliberately simple)."""
    return line.split("//", 1)[0]

for path in sorted(SRC.rglob("*.[ch]pp")):
    rel = path.as_posix()
    lines = path.read_text().splitlines()

    # Rule 1: raw std primitives (common/mutex.hpp wraps them; std::once_flag
    # and std::atomic are fine — they need no capability annotations).
    if rel != "src/common/mutex.hpp":
        for i, line in enumerate(lines, 1):
            m = RAW_PRIMITIVES.search(code_part(line))
            if m:
                errors.append(
                    f"{rel}:{i}: raw std::{m.group(1)} — use the annotated "
                    "wrappers in common/mutex.hpp so -Wthread-safety can "
                    "see the lock")

    # Rule 2: lock members imply annotations somewhere in the file.
    member_line = next(
        (i for i, line in enumerate(lines, 1)
         if LOCK_MEMBER.match(code_part(line))), None)
    if member_line is not None and rel not in (
            "src/common/mutex.hpp", "src/common/spinlock.hpp"):
        if not any(ANNOTATION.search(code_part(l)) for l in lines):
            errors.append(
                f"{rel}:{member_line}: common::mutex/spinlock member but no "
                "thread-safety annotations in the file — declare what the "
                "lock guards (GUARDED_BY/REQUIRES)")

    # Rule 3: memory_order_relaxed needs a nearby justifying comment.
    covered = set()
    for i, line in enumerate(lines, 1):
        if RELAXED not in line:
            continue
        ok = any(
            RELAXED_COMMENT.search(lines[j - 1])
            for j in range(max(1, i - WINDOW), i + 1))
        ok = ok or any(j in covered for j in range(i - WINDOW, i))
        if ok:
            covered.add(i)
        else:
            errors.append(
                f"{rel}:{i}: memory_order_relaxed without a justifying "
                "comment (say why relaxed is sound within the 4 lines above)")

# Rule 4: software prefetch lives in the storage layer only. Every C++
# source of the project is checked, not just src/.
PREFETCH = re.compile(r"\b__builtin_prefetch\b")
for top in ("src", "tests", "bench", "examples"):
    for path in sorted(pathlib.Path(top).rglob("*.[ch]pp")):
        rel = path.as_posix()
        if rel.startswith("src/storage/"):
            continue
        for i, line in enumerate(path.read_text().splitlines(), 1):
            if PREFETCH.search(code_part(line)):
                errors.append(
                    f"{rel}:{i}: __builtin_prefetch outside src/storage/ — "
                    "use the storage prefetch API (storage/prefetch.hpp, "
                    "table::prefetch_key / prefetch_row)")

# Rule 5: syncs go through log::checked_fsync. Every C++ source is checked.
SYNC = re.compile(r"\b(fsync|fdatasync)\s*\(")
for top in ("src", "tests", "bench", "examples"):
    for path in sorted(pathlib.Path(top).rglob("*.[ch]pp")):
        rel = path.as_posix()
        if rel == "src/log/io.cpp":
            continue
        for i, line in enumerate(path.read_text().splitlines(), 1):
            m = SYNC.search(code_part(line))
            if m:
                errors.append(
                    f"{rel}:{i}: {m.group(1)} outside src/log/io.cpp — call "
                    "log::checked_fsync, which stops the process when the "
                    "sync fails")

if errors:
    print("\n".join(errors))
    print(f"\nlint: {len(errors)} finding(s)", file=sys.stderr)
    sys.exit(1)
print("lint: custom lints clean")
PY

# ---------------------------------------------------------------------------
# Determinism contract: tools/quecc-analyze over src/ (phase discipline,
# banned nondeterministic APIs, ordered-output hygiene — see
# src/common/phase_annotations.hpp). The text frontend needs only python3;
# --frontend=auto upgrades itself to libclang when the bindings and the
# compile database are available (the clang CI job).
# ---------------------------------------------------------------------------
python3 tools/quecc-analyze --frontend=auto --compile-db "$BUILD_DIR/compile_commands.json"

# ---------------------------------------------------------------------------
# clang-tidy over every src/ translation unit in the compile database.
# ---------------------------------------------------------------------------
if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "lint: clang-tidy not on PATH — skipping (CI runs it)"
    exit 0
fi
if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
    echo "lint: $BUILD_DIR/compile_commands.json missing — configure first:" >&2
    echo "  cmake -B $BUILD_DIR -S ." >&2
    exit 1
fi

if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -p "$BUILD_DIR" -quiet "src/.*\.cpp$"
else
    # Fall back to sequential clang-tidy; slower, same findings.
    find src -name '*.cpp' -print | xargs clang-tidy -p "$BUILD_DIR" --quiet
fi
echo "lint: clang-tidy clean"
