#!/usr/bin/env python3
"""ppsim determinism lint: the RNG-stream contract, enforced at the source.

The simulator's replay guarantees (bit-identical trajectories across thread
counts, shard widths and engine lanes) rest on conventions no compiler
checks:

  rng-construction    Every RNG is seeded either through a blessed
                      derivation (core::derive_seed / core::stream_seed,
                      which take tags from the core/stream_tags.hpp
                      registry) or by passing an existing seed value
                      through verbatim. Inline seed arithmetic at a
                      construction site (seed ^ 0x..., seed + 1, a literal
                      seed) creates an unregistered stream.
  inline-hex-tag      Stream tags are named registry constants, never
                      inline numeric literals — neither as the tag argument
                      of stream_seed/derive_seed nor as the legacy
                      `seed ^ 0xHEX` idiom.
  banned-entropy      std::rand, std::random_device, srand and time() are
                      ambient entropy; nothing in src/ may touch them.
  unordered-iteration Iterating an unordered container hands hash-order —
                      which varies across libstdc++ versions and ASLR — to
                      whatever consumes the loop; results and reports must
                      come from ordered iteration (or sort first).
  cold-path           Designated replay/fallback functions (the divergence
                      diagnostics and conflict-tail paths) must carry
                      [[gnu::cold]] so the optimizer keeps them off the hot
                      path; the designation lives in COLD_REGISTRY below
                      and in-file `// ppsim-lint-cold: <name>` markers.

Engines: `--engine clang` tokenizes with libclang (exact comment/string/
literal classification, macro awareness) when the python bindings and a
loadable libclang are present; `--engine token` uses the built-in lexer;
the default `auto` prefers libclang and falls back silently. Both engines
feed the same rule implementations, so the fallback is a strict superset
of environments at slightly coarser tokenization — CI runs whichever the
runner has.

Suppression: append `// ppsim-lint: allow(<rule-id>)` on the offending
line or the line above. Suppressions are for justified exceptions and
should say why in the surrounding comment.

Self-test: `ppsim_lint.py --self-test` runs the rules over
tests/lint/fixtures/, asserting every must_pass file is clean, every
must_fail file fires exactly the rules its `ppsim-lint-expect:` comments
declare, and every rule is proven by at least one failing fixture. The
ctest registration (lint_fixture_corpus) runs exactly this.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

RULES = (
    "rng-construction",
    "inline-hex-tag",
    "banned-entropy",
    "unordered-iteration",
    "cold-path",
)

RNG_TYPES = {"Xoshiro256pp", "XoshiroLanes", "SplitMix64"}
BLESSED_DERIVATIONS = {"derive_seed", "stream_seed"}
UNORDERED_TYPES = re.compile(
    r"unordered_(?:map|set|multimap|multiset|flat_map|flat_set)\b")

# Designated cold paths, by path suffix relative to the repo root. These
# are the replay/fallback functions the perf story depends on staying out
# of the hot code layout; dropping the attribute in a refactor is silent
# without this rule.
COLD_REGISTRY = {
    "src/core/rng.hpp": ["redraw_rejected"],
    "src/core/word_driver.hpp": [
        "census_replay",
        "census_replay_rings",
        "run_group_conflicted",
    ],
}

# Files exempt from rng-construction/inline-hex-tag: the RNG definitions
# themselves (whose constructors and mixing constants are the mechanism the
# rules protect) and the tag registry.
DERIVATION_DEFINITION_FILES = ("src/core/rng.hpp", "src/core/stream_tags.hpp")


@dataclasses.dataclass(frozen=True)
class Token:
    kind: str  # "id" | "num" | "str" | "punct"
    text: str
    line: int


@dataclasses.dataclass(frozen=True)
class Violation:
    path: pathlib.Path
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --- Tokenization -----------------------------------------------------------

_ID = re.compile(r"[A-Za-z_]\w*")
_NUM = re.compile(r"(?:0[xXbB][0-9a-fA-F']+|\d[\d'a-fA-F]*(?:\.\d+)?)"
                  r"(?:[uUlLfF]*)")


def _builtin_lex(text: str) -> tuple[list[Token], list[tuple[int, str]]]:
    """The fallback lexer: tokens plus (line, comment-text) pairs."""
    tokens: list[Token] = []
    comments: list[tuple[int, str]] = []
    i, line, n = 0, 1, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
        elif c in " \t\r":
            i += 1
        elif text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            comments.append((line, text[i:j]))
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            comments.append((line, text[i:j + 2]))
            line += text.count("\n", i, j + 2)
            i = j + 2
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            tokens.append(Token("str", text[i:j + 1], line))
            line += text.count("\n", i, j + 1)
            i = j + 1
        elif m := _NUM.match(text, i):
            tokens.append(Token("num", m.group(), line))
            i = m.end()
        elif m := _ID.match(text, i):
            tokens.append(Token("id", m.group(), line))
            i = m.end()
        else:
            if text.startswith("::", i):
                tokens.append(Token("punct", "::", line))
                i += 2
            else:
                tokens.append(Token("punct", c, line))
                i += 1
    return tokens, comments


def _load_libclang():
    try:
        from clang import cindex  # type: ignore
        index = cindex.Index.create()
        return cindex, index
    except Exception:
        return None


def _clang_lex(path: pathlib.Path, cindex, index):
    tu = index.parse(
        str(path),
        args=["-std=c++20", f"-I{REPO / 'src'}", "-fparse-all-comments"],
    )
    tokens: list[Token] = []
    comments: list[tuple[int, str]] = []
    kinds = cindex.TokenKind
    for t in tu.get_tokens(extent=tu.cursor.extent):
        line = t.location.line
        if t.kind == kinds.COMMENT:
            comments.append((line, t.spelling))
        elif t.kind in (kinds.IDENTIFIER, kinds.KEYWORD):
            tokens.append(Token("id", t.spelling, line))
        elif t.kind == kinds.LITERAL:
            kind = "str" if t.spelling[:1] in "\"'" else "num"
            tokens.append(Token(kind, t.spelling, line))
        else:
            tokens.append(Token("punct", t.spelling, line))
    return tokens, comments


# --- Rule helpers -----------------------------------------------------------

_OPEN = {"(": ")", "[": "]", "{": "}", "<": ">"}


def _balanced(tokens: list[Token], start: int) -> int:
    """Index one past the closer matching tokens[start] (an opener)."""
    close = _OPEN[tokens[start].text]
    depth = 0
    for i in range(start, len(tokens)):
        if tokens[i].text == tokens[start].text:
            depth += 1
        elif tokens[i].text == close:
            depth -= 1
            if depth == 0:
                return i + 1
    return len(tokens)


def _split_args(arg_tokens: list[Token]) -> list[list[Token]]:
    args: list[list[Token]] = [[]]
    depth = 0
    for t in arg_tokens:
        if t.text in "([{":
            depth += 1
        elif t.text in ")]}":
            depth -= 1
        if t.text == "," and depth == 0:
            args.append([])
        else:
            args[-1].append(t)
    return [a for a in args if a] or []


_SEED_OPERATORS = {"^", "+", "-", "*", "/", "%", "|", "&", "~", "<<", ">>"}
_PASSTHROUGH_PUNCT = {".", "->", "::", "[", "]", "(", ")", ","}


def _seed_expr_ok(arg_tokens: list[Token]) -> bool:
    """Is this RNG seed expression a blessed derivation or a passthrough?"""
    if not arg_tokens:
        return True  # default construction
    if any(t.kind == "id" and t.text in BLESSED_DERIVATIONS
           for t in arg_tokens):
        return True
    # Passthrough: member/subscript access over seed-named values, with no
    # arithmetic and no literals outside subscripts.
    depth = 0
    for t in arg_tokens:
        if t.text in "([":
            depth += 1
        elif t.text in ")]":
            depth -= 1
        if depth == 0 and (t.kind == "num" or t.text in _SEED_OPERATORS):
            return False
        if t.kind == "punct" and t.text not in _PASSTHROUGH_PUNCT and \
                t.text not in "([)]":
            return False
    return any(t.kind == "id" and "seed" in t.text.lower()
               for t in arg_tokens)


# --- Rules ------------------------------------------------------------------

def _rule_rng_construction(path, rel, tokens, add):
    if rel in DERIVATION_DEFINITION_FILES:
        return
    for i, t in enumerate(tokens):
        args = None
        if t.kind == "id" and t.text in RNG_TYPES:
            # Not a construction: the type's own definition or constructor
            # declaration.
            if i >= 1 and tokens[i - 1].text in ("struct", "class",
                                                 "explicit", "~"):
                continue
            j = i + 1
            if j < len(tokens) and tokens[j].text == "<":  # template args
                j = _balanced(tokens, j)
            if j < len(tokens) and tokens[j].kind == "id":  # variable name
                j += 1
            if j < len(tokens) and tokens[j].text in "({":
                end = _balanced(tokens, j)
                args = tokens[j + 1:end - 1]
                # A '=' at top depth marks a parameter default — this is a
                # declaration, not a construction.
                depth = 0
                for a in args:
                    if a.text in "([{":
                        depth += 1
                    elif a.text in ")]}":
                        depth -= 1
                    elif a.text == "=" and depth == 0:
                        args = None
                        break
        elif (t.kind == "id" and t.text == "emplace_back" and i >= 2 and
              tokens[i - 1].text == "." and "rng" in tokens[i - 2].text and
              i + 1 < len(tokens) and tokens[i + 1].text == "("):
            end = _balanced(tokens, i + 1)
            args = tokens[i + 2:end - 1]
        if args is not None and not _seed_expr_ok(args):
            add(t.line, "rng-construction",
                "RNG seeded outside the blessed derivations: use "
                "core::derive_seed / core::stream_seed with a registered "
                "tag (core/stream_tags.hpp) or pass an existing seed "
                "through verbatim")


def _rule_inline_hex_tag(path, rel, tokens, add):
    if rel in DERIVATION_DEFINITION_FILES:
        return
    for i, t in enumerate(tokens):
        if (t.kind == "id" and t.text in BLESSED_DERIVATIONS and
                i + 1 < len(tokens) and tokens[i + 1].text == "("):
            end = _balanced(tokens, i + 1)
            args = _split_args(tokens[i + 2:end - 1])
            if len(args) >= 2 and any(a.kind == "num" for a in args[1]):
                add(t.line, "inline-hex-tag",
                    f"{t.text} called with a literal stream tag — tags "
                    "must be named constants from core/stream_tags.hpp")
        # Legacy idiom: seed ^ 0xHEX outside the blessed helpers.
        if (t.kind == "id" and "seed" in t.text.lower() and
                i + 2 < len(tokens) and tokens[i + 1].text == "^" and
                tokens[i + 2].kind == "num"):
            add(t.line, "inline-hex-tag",
                "inline XOR stream tag — derive the stream with "
                "core::stream_seed(seed, streams::k...) instead")


def _rule_banned_entropy(path, rel, tokens, add):
    for i, t in enumerate(tokens):
        if t.kind != "id":
            continue
        called = i + 1 < len(tokens) and tokens[i + 1].text == "("
        qualified = i >= 1 and tokens[i - 1].text == "::"
        member = i >= 1 and tokens[i - 1].text in (".", "->")
        if t.text == "random_device":
            add(t.line, "banned-entropy",
                "std::random_device is ambient entropy — every stream must "
                "derive from the trial seed")
        elif t.text in ("rand", "srand") and (called or qualified):
            add(t.line, "banned-entropy",
                f"{t.text}() is ambient entropy — derive from the trial "
                "seed instead")
        elif t.text == "time" and called and not member:
            add(t.line, "banned-entropy",
                "time() seeds are non-reproducible — derive from the "
                "trial seed instead")


def _rule_unordered_iteration(path, rel, tokens, add):
    unordered_vars: set[str] = set()
    for i, t in enumerate(tokens):
        if t.kind == "id" and UNORDERED_TYPES.match(t.text):
            j = i + 1
            if j < len(tokens) and tokens[j].text == "<":
                j = _balanced(tokens, j)
            while j < len(tokens) and (tokens[j].text in ("&", "*") or
                                       tokens[j].text == "const"):
                j += 1  # reference/pointer/const qualifiers of the declarator
            if j < len(tokens) and tokens[j].kind == "id":
                unordered_vars.add(tokens[j].text)
    for i, t in enumerate(tokens):
        if not (t.kind == "id" and t.text == "for" and
                i + 1 < len(tokens) and tokens[i + 1].text == "("):
            continue
        end = _balanced(tokens, i + 1)
        head = tokens[i + 2:end - 1]
        # The range-for colon is a bare ':' at top nesting depth ('::' is
        # one token, so it cannot be confused here).
        depth = 0
        for k, h in enumerate(head):
            if h.text in "([{":
                depth += 1
            elif h.text in ")]}":
                depth -= 1
            elif h.text == ":" and depth == 0:
                range_expr = head[k + 1:]
                if any(h2.kind == "id" and
                       (h2.text in unordered_vars or
                        UNORDERED_TYPES.match(h2.text))
                       for h2 in range_expr):
                    add(t.line, "unordered-iteration",
                        "iteration order of an unordered container is not "
                        "deterministic across runs — iterate an ordered "
                        "view (or sort) before it feeds results/reports")
                break


def _rule_cold_path(path, rel, tokens, add, cold_names):
    names = list(COLD_REGISTRY.get(rel, [])) + cold_names
    if not names:
        return
    for name in names:
        sites = [
            i for i, t in enumerate(tokens)
            if t.kind == "id" and t.text == name and
            i + 1 < len(tokens) and tokens[i + 1].text == "("
        ]
        if not sites:
            add(1, "cold-path",
                f"designated cold path '{name}' not found — update the "
                "lint registry (COLD_REGISTRY / ppsim-lint-cold) alongside "
                "the code")
            continue

        def _is_cold(site: int) -> bool:
            # [[gnu::cold, ...]] appears shortly before the declarator:
            # scan the preceding tokens of the same declaration.
            for k in range(max(0, site - 24), site):
                if tokens[k].kind == "id" and tokens[k].text == "cold" and \
                        k >= 2 and tokens[k - 1].text == "::" and \
                        tokens[k - 2].text == "gnu":
                    return True
            return False

        if not any(_is_cold(s) for s in sites):
            add(tokens[sites[0]].line, "cold-path",
                f"'{name}' is a designated replay/fallback path and must "
                "be declared [[gnu::cold]]")


# --- Driver -----------------------------------------------------------------

_ALLOW = re.compile(r"ppsim-lint:\s*allow\(([\w,\s-]+)\)")
_EXPECT = re.compile(r"ppsim-lint-expect:\s*([\w-]+)")
_COLD_MARK = re.compile(r"ppsim-lint-cold:\s*(\w+)")


def lint_file(path: pathlib.Path, engine) -> list[Violation]:
    try:
        rel = str(path.resolve().relative_to(REPO))
    except ValueError:
        rel = str(path)
    if engine is not None:
        tokens, comments = _clang_lex(path, *engine)
    else:
        tokens, comments = _builtin_lex(
            path.read_text(encoding="utf-8", errors="replace"))

    allowed: dict[int, set[str]] = {}
    cold_names: list[str] = []
    for line, text in comments:
        if m := _ALLOW.search(text):
            rules = {r.strip() for r in m.group(1).split(",")}
            for covered in (line, line + 1):
                allowed.setdefault(covered, set()).update(rules)
        if m := _COLD_MARK.search(text):
            cold_names.append(m.group(1))

    out: list[Violation] = []

    def add(line: int, rule: str, message: str) -> None:
        if rule in allowed.get(line, ()):  # same-line / line-above allow
            return
        out.append(Violation(path, line, rule, message))

    _rule_rng_construction(path, rel, tokens, add)
    _rule_inline_hex_tag(path, rel, tokens, add)
    _rule_banned_entropy(path, rel, tokens, add)
    _rule_unordered_iteration(path, rel, tokens, add)
    _rule_cold_path(path, rel, tokens, add, cold_names)
    return out


def collect_sources(roots: list[pathlib.Path]) -> list[pathlib.Path]:
    files: list[pathlib.Path] = []
    for root in roots:
        if root.is_file():
            files.append(root)
        else:
            for ext in ("*.hpp", "*.cpp", "*.h", "*.cc"):
                files.extend(sorted(root.rglob(ext)))
    return files


def self_test(engine) -> int:
    fixtures = REPO / "tests" / "lint" / "fixtures"
    failures: list[str] = []
    proven: set[str] = set()

    for path in sorted((fixtures / "must_pass").glob("*.cpp")):
        got = lint_file(path, engine)
        if got:
            failures.append(f"{path.name}: expected clean, got:\n  " +
                            "\n  ".join(v.render() for v in got))

    for path in sorted((fixtures / "must_fail").glob("*.cpp")):
        text = path.read_text(encoding="utf-8")
        expected = set(_EXPECT.findall(text))
        if not expected:
            failures.append(f"{path.name}: no ppsim-lint-expect marker")
            continue
        got = {v.rule for v in lint_file(path, engine)}
        if got != expected:
            failures.append(
                f"{path.name}: expected rules {sorted(expected)}, "
                f"got {sorted(got)}")
        proven |= got & expected

    missing = set(RULES) - proven
    if missing:
        failures.append(
            f"rules with no failing fixture proving them: {sorted(missing)}")

    if failures:
        print("ppsim_lint self-test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"ppsim_lint self-test OK: {len(RULES)} rules, "
          f"all proven by the fixture corpus")
    return 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", type=pathlib.Path,
                    help="files or directories to lint (default: src/)")
    ap.add_argument("--engine", choices=("auto", "token", "clang"),
                    default="auto")
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture corpus instead of linting")
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args(argv)

    engine = None
    if args.engine in ("auto", "clang"):
        engine = _load_libclang()
        if engine is None and args.engine == "clang":
            print("ppsim_lint: --engine clang requested but libclang "
                  "python bindings are unavailable", file=sys.stderr)
            return 2
    if args.verbose:
        print(f"ppsim_lint: engine = "
              f"{'libclang' if engine else 'builtin token lexer'}")

    if args.self_test:
        return self_test(engine)

    roots = args.paths or [REPO / "src"]
    violations: list[Violation] = []
    for path in collect_sources(roots):
        violations.extend(lint_file(path, engine))
    for v in violations:
        print(v.render())
    if violations:
        print(f"ppsim_lint: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    if args.verbose:
        print("ppsim_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
