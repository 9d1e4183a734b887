#!/usr/bin/env python3
"""CI guard for the bench trajectory artifacts.

PR 1 wrote BENCH_throughput.json but never committed it, so the perf
trajectory was silently empty for a whole PR. This guard makes that class of
breakage loud: for every trajectory bench (a `bench/<name>_json.cpp` source,
building a `bench_<name>_json` binary that writes `BENCH_<name>.json`), fail
unless

  1. `BENCH_<name>.json` is tracked by git at the repo root (the committed
     trajectory point), and
  2. the file on disk passes a schema sanity check: a JSON object with
     `"bench": "<name>"`, an integer `schema_version >= 1`, a string `unit`,
     and a non-empty `results` array of objects.

Run it from the repo root, after the CI smoke runs have (re)written the
artifacts in place — that way both the committed copy and the freshly
generated output go through the same check (a bench that starts emitting
malformed JSON fails here, not three PRs later when someone plots the
trajectory). See README.md "Bench trajectory artifacts".
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

# Registered schema_version of every trajectory artifact. A bench that
# bumps its schema MUST bump its entry here in the same PR — otherwise the
# drift is an accident (a field rename silently orphaning every committed
# trajectory point) and the guard fails. A bench with no entry is also a
# failure: register it when the bench is introduced.
KNOWN_SCHEMA_VERSIONS = {
    "campaign": 1,
    "chaos": 1,
    "checker": 1,
    "ensemble": 2,
    "recovery": 1,
    "throughput": 2,
}


def discover_bench_names(repo: pathlib.Path) -> list[str]:
    """Trajectory bench names, from the bench/<name>_json.cpp convention."""
    names = sorted(
        p.name.removesuffix("_json.cpp")
        for p in (repo / "bench").glob("*_json.cpp")
    )
    if not names:
        sys.exit("check_bench_artifacts: no bench/*_json.cpp sources found "
                 "(run from the repo root)")
    return names


def is_tracked(repo: pathlib.Path, rel: str) -> bool:
    proc = subprocess.run(
        ["git", "-C", str(repo), "ls-files", "--error-unmatch", rel],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    return proc.returncode == 0


def schema_errors(path: pathlib.Path, name: str) -> list[str]:
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        return [f"unreadable or invalid JSON: {e}"]
    errs = []
    if not isinstance(doc, dict):
        return ["top level is not a JSON object"]
    if doc.get("bench") != name:
        errs.append(f'"bench" is {doc.get("bench")!r}, expected {name!r}')
    sv = doc.get("schema_version")
    if not isinstance(sv, int) or sv < 1:
        errs.append(f'"schema_version" is {sv!r}, expected an integer >= 1')
    elif name not in KNOWN_SCHEMA_VERSIONS:
        errs.append(
            f"bench {name!r} has no entry in KNOWN_SCHEMA_VERSIONS — "
            f"register its schema_version ({sv}) in "
            f"scripts/check_bench_artifacts.py")
    elif sv != KNOWN_SCHEMA_VERSIONS[name]:
        errs.append(
            f'"schema_version" is {sv}, but {KNOWN_SCHEMA_VERSIONS[name]} '
            f"is registered — schema drift must update "
            f"KNOWN_SCHEMA_VERSIONS in the same PR")
    if not isinstance(doc.get("unit"), str) or not doc["unit"]:
        errs.append('"unit" missing or not a non-empty string')
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        errs.append('"results" missing or empty')
    elif not all(isinstance(r, dict) for r in results):
        errs.append('"results" contains non-object entries')
    if name == "throughput" and isinstance(results, list):
        errs += throughput_word_path_errors(results)
    return errs


def throughput_word_path_errors(results: list) -> list[str]:
    """P_PL word-lane invariant of BENCH_throughput.json.

    packed_speedup is measured at every ring size (no engagement gate), so
    a value below 1 is a measurement, not an error. The flagship n = 16384
    cell must be measured at all (packed_speedup > 0): the CI smoke that
    the one-ring ensemble stayed in word_kernel_mode.
    """
    errs = []
    flagship_seen = False
    for r in results:
        if not isinstance(r, dict) or r.get("protocol") != "P_PL":
            continue
        ps = r.get("packed_speedup")
        if not isinstance(ps, (int, float)):
            errs.append(f'P_PL n={r.get("n")}: packed_speedup missing')
            continue
        if r.get("n") == 16384:
            flagship_seen = True
            if ps <= 0:
                errs.append(
                    "P_PL n=16384: packed_speedup <= 0 — the one-ring "
                    "ensemble must run in word_kernel_mode at the flagship "
                    "ring size")
    if not flagship_seen:
        errs.append("P_PL n=16384 row missing from throughput results")
    return errs


def main() -> int:
    repo = pathlib.Path(__file__).resolve().parent.parent
    failures = []
    for name in discover_bench_names(repo):
        rel = f"BENCH_{name}.json"
        if not is_tracked(repo, rel):
            failures.append(
                f"{rel}: not tracked by git — bench_{name}_json writes it, "
                f"so the trajectory point must be committed at the repo root")
        for err in schema_errors(repo / rel, name):
            failures.append(f"{rel}: {err}")
        if not any(f.startswith(rel) for f in failures):
            print(f"ok: {rel} (tracked, schema valid)")
    if failures:
        print("bench artifact guard FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
