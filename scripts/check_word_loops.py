#!/usr/bin/env python3
"""Permute guard for the P_PL word loops.

Disassembles the four ISA clones of WordGroupDriver<PlProtocol>
(run_avx512, rings_avx512, run_avx2, rings_avx2; src/core/word_driver.hpp)
in one binary and fails if any of them holds a vpermq, vpermi2q or
vpermt2q. The kernel constants must reach the lanes as broadcasts from
memory (the clones' MemoryBroadcast policy), not as one vector load whose
lanes are permuted out on the shuffle port. vperm2i128 is not counted: the
AVX2 lockstep loop uses two to broadcast the RNG bound.

Usage: check_word_loops.py <binary>

Exit status: 0 when every clone is clean; 1 when a clone holds a permute,
only some of the four clones are present or objdump cannot read the
binary; 77 (ctest's SKIP_RETURN_CODE) when objdump is missing or the
binary holds none of the clones (a non-x86 build compiles them out).
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys

CLONES = ("run_avx512", "rings_avx512", "run_avx2", "rings_avx2")
SKIP = 77

FUNCTION = re.compile(r"^[0-9a-f]+ <(.*)>:$")
CLONE = re.compile(
    r"WordGroupDriver<ppsim::pl::PlProtocol>::(" + "|".join(CLONES) + r")\(")
INSTRUCTION = re.compile(r"^\s+[0-9a-f]+:\s+(\S.*)$")
PERMUTE = re.compile(r"\bvperm(?:q|i2q|t2q)\b")


def scan(disassembly: str) -> dict[str, tuple[int, int]]:
    """Per clone found: (instructions, permutes)."""
    counts: dict[str, tuple[int, int]] = {}
    clone = None
    for line in disassembly.splitlines():
        header = FUNCTION.match(line)
        if header:
            found = CLONE.search(header.group(1))
            clone = found.group(1) if found else None
            if clone:
                counts.setdefault(clone, (0, 0))
            continue
        insn = INSTRUCTION.match(line) if clone else None
        if insn:
            total, permutes = counts[clone]
            counts[clone] = (total + 1,
                             permutes + bool(PERMUTE.search(insn.group(1))))
    return counts


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: check_word_loops.py <binary>", file=sys.stderr)
        return 2
    objdump = shutil.which("objdump")
    if objdump is None:
        print("SKIP: objdump not found")
        return SKIP
    run = subprocess.run([objdump, "-d", "-C", "--no-show-raw-insn", argv[1]],
                         capture_output=True, text=True)
    if run.returncode != 0:
        print(f"FAIL: objdump could not read {argv[1]}: {run.stderr.strip()}")
        return 1
    counts = scan(run.stdout)
    if not counts:
        print(f"SKIP: {argv[1]} holds no WordGroupDriver<PlProtocol> clone")
        return SKIP
    status = 0
    for clone in CLONES:
        if clone not in counts:
            print(f"FAIL {clone}: missing while other clones are present")
            status = 1
            continue
        total, permutes = counts[clone]
        verdict = "ok  " if permutes == 0 else "FAIL"
        print(f"{verdict} {clone}: {permutes} permutes "
              f"in {total} instructions")
        if permutes:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
