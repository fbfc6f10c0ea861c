#!/usr/bin/env python3
"""wsd_lint: fast repo-invariant checker for the webspread tree.

Machine-checks the conventions the library relies on but a compiler alone
cannot (or only partially) enforce. No compiler or build tree needed; a
full run takes well under a second, so it is cheap enough for CI and for
a pre-commit hook.

Rules (ids in brackets, each documented in docs/STATIC_ANALYSIS.md):

  [discarded-status]    A statement-expression call to a function returning
                        Status/StatusOr whose result is dropped, including
                        `(void)` / `static_cast<void>` casts. The sanctioned
                        way to ignore an error is `.IgnoreError()`.
  [missing-nodiscard]   A Status/StatusOr-returning declaration in a src/
                        header without [[nodiscard]].
  [rng-discipline]      Nondeterministic or libc RNG (std::rand, srand,
                        std::random_device, time()-seeding, mt19937) outside
                        src/util/rng.cc. Every randomized component must go
                        through wsd::Rng with an explicit seed.
  [stdio-in-library]    iostream/printf-family output in library code.
                        CLI output belongs to tools/wsdctl.cc and bench/;
                        the library logs through src/util/logging.
  [using-namespace]     `using namespace` in a header.
  [include-guard]       Header guard does not match the canonical
                        WSD_<PATH>_H_ form derived from the file path, or
                        the header uses `#pragma once` (the repo
                        standardizes on named guards).
  [frozen-oracle]       A WSD_FROZEN_BEGIN/END region (the legacy-scan
                        equivalence oracle from PR 3) was edited without
                        updating tools/frozen_oracle.lock, or the markers
                        themselves are malformed/missing.
  [simd-confinement]    An x86 intrinsics header (<immintrin.h> family),
                        _mm*/_mm256* intrinsic, vector register type, or
                        __builtin_cpu_supports anywhere in library code.
                        The scan runs byte loops only, the same on every
                        host; a vector path returns only with the
                        end-to-end win docs/ARCHITECTURE.md asks for.
  [attr-switch]         A `switch` over an attribute value or a
                        `case Attribute::` label outside the attribute
                        registry TU (src/extract/attribute_registry.cc).
                        Per-attribute behavior lives in AttributeSpec
                        descriptors/hooks; enum dispatch anywhere else
                        re-creates the scattered switch sites the
                        registry replaced.
  [raw-concurrency]     A raw standard-library synchronization primitive
                        (std::mutex family, lock_guard/unique_lock/
                        scoped_lock/shared_lock, condition_variable,
                        once_flag/call_once, or the <mutex>/
                        <condition_variable>/<shared_mutex> includes)
                        outside src/util/mutex.h. All locking goes through
                        the annotated wsd::Mutex/MutexLock/CondVar wrappers
                        so clang -Wthread-safety sees every acquisition.
  [guarded-field]       A mutable data member co-declared with a Mutex in
                        the same class body but carrying no GUARDED_BY /
                        PT_GUARDED_BY annotation. Deliberately unguarded
                        fields must say why in an immediately preceding
                        `// unguarded: <reason>` comment.
  [rng-sequencing]      A statement in library code that draws from an
                        Rng more than once: calls on the Rng, or the Rng
                        passed to a picker, sampler or helper. C++ leaves
                        the order of such draws to the compiler, so the
                        corpus would differ between toolchains. The two
                        arms of a conditional expression count as one
                        draw. Draw into named locals, one per statement.
  [test-hook]           A `*ForTest`/`*ForTesting` identifier or a
                        NO_THREAD_SAFETY_ANALYSIS annotation in library
                        code (src/util/mutex.h, which defines the macro,
                        is exempt). Library code is production code:
                        tests drive its public API, and every function
                        stays under the lock-discipline analysis.

Usage:
  tools/wsd_lint.py [--root REPO] [--update-frozen] [--self-test] [-q]

Exit codes: 0 clean, 1 violations found, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import sys
import tempfile

# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------

# Directories scanned for library invariants, relative to the repo root.
LIBRARY_DIRS = ("src",)
# .cc scopes for the discarded-status rule (tests use EXPECT/ASSERT wrappers
# which consume the value; bench and examples are demo code).
STATUS_CALL_DIRS = ("src", "tools")
# Headers outside src/ that still get guard/using-namespace checks.
EXTRA_HEADER_DIRS = ("fuzz",)

# The logger backend is the one translation unit allowed to write to stderr.
STDIO_EXEMPT = {os.path.join("src", "util", "logging.cc")}
# The deterministic-RNG implementation itself.
RNG_EXEMPT = {os.path.join("src", "util", "rng.cc")}

FROZEN_LOCK = os.path.join("tools", "frozen_oracle.lock")
FROZEN_BEGIN_RE = re.compile(r"//\s*WSD_FROZEN_BEGIN\((\w+)\)")
FROZEN_END_RE = re.compile(r"//\s*WSD_FROZEN_END\((\w+)\)")

RNG_BANNED = [
    (re.compile(r"\bstd::rand\b|(?<![\w:])srand\s*\("), "libc rand/srand"),
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
    (re.compile(r"\bstd::mt19937(_64)?\b"), "std::mt19937 (use wsd::Rng)"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(nullptr|NULL|0)\s*\)"),
     "wall-clock seeding"),
]

STDIO_BANNED = [
    (re.compile(r"\bstd::(cout|cerr|clog)\b"), "std::cout/cerr/clog"),
    (re.compile(r"(?<![\w.])(?<!::)(?:std::)?(printf|fprintf|puts|fputs|"
                r"putchar|perror)\s*\("), "printf-family output"),
    (re.compile(r'#\s*include\s*<iostream>'), "#include <iostream>"),
]

STATEMENT_KEYWORDS = (
    "return", "co_return", "if", "else", "while", "for", "switch", "case",
    "do", "throw", "goto", "break", "continue", "using", "typedef",
    "namespace", "public", "private", "protected", "default", "delete",
    "new", "template", "struct", "class", "enum", "static_assert",
)

# --------------------------------------------------------------------------
# Helpers
# --------------------------------------------------------------------------


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path, self.line, self.rule, self.message = path, line, rule, message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_code(text: str) -> str:
    """Blanks comments and string/char literal contents, preserving offsets.

    Every replaced character becomes a space (newlines are kept), so line
    numbers and column positions in the stripped text match the original.
    """
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and
                                 text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = out[i + 1] = " "
                i += 2
        elif c == 'R' and nxt == '"':
            # Raw string literal R"delim( ... )delim".
            m = re.match(r'R"([^()\\ ]{0,16})\(', text[i:])
            if not m:
                i += 1
                continue
            end = text.find(f'){m.group(1)}"', i + m.end())
            end = n if end == -1 else end + len(m.group(1)) + 2
            for j in range(i, end):
                if text[j] != "\n":
                    out[j] = " "
            i = end
        elif c in "\"'":
            quote = c
            out[i] = quote  # keep delimiters so "..." stays a token
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out[i] = " "
                    i += 1
                    if i < n and text[i] != "\n":
                        out[i] = " "
                        i += 1
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                i += 1  # keep closing delimiter
        else:
            i += 1
    return "".join(out)


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def iter_files(root: str, dirs, exts):
    for d in dirs:
        base = os.path.join(root, d)
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(tuple(exts)):
                    yield os.path.relpath(os.path.join(dirpath, name), root)


def read(root: str, rel: str) -> str:
    with open(os.path.join(root, rel), encoding="utf-8", errors="replace") as f:
        return f.read()


# --------------------------------------------------------------------------
# Rule: discarded-status (+ the header scan that powers it)
# --------------------------------------------------------------------------

STATUS_DECL_RE = re.compile(
    r"(?P<nodiscard>\[\[nodiscard\]\]\s+)?"
    r"(?P<static>static\s+)?"
    r"(?P<ret>(?:::)?(?:wsd::)?Status(?:Or<[^;={}]*?>)?)\s+"
    r"(?P<name>[A-Za-z_]\w*)\s*\(")


def collect_status_functions(root: str, findings):
    """Returns the set of function names returning Status/StatusOr, and
    flags declarations missing [[nodiscard]] ([missing-nodiscard])."""
    names = set()
    for rel in iter_files(root, LIBRARY_DIRS, (".h",)):
        text = strip_code(read(root, rel))
        for m in STATUS_DECL_RE.finditer(text):
            name = m.group("name")
            if name in ("operator", "WSD_CONCAT_"):
                continue
            names.add(name)
            if not m.group("nodiscard"):
                findings.append(Finding(
                    rel, line_of(text, m.start()), "missing-nodiscard",
                    f"'{name}' returns {m.group('ret')} but is not "
                    "[[nodiscard]]"))
    return names


def match_paren(text: str, open_pos: int) -> int:
    """Index of the ')' matching the '(' at open_pos, or -1."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


CALL_HEAD_RE = re.compile(
    r"^(?:[A-Za-z_]\w*(?:::[A-Za-z_]\w*)*(?:\(\s*\))?(?:\.|->))*"
    r"(?P<name>[A-Za-z_]\w*)\s*\(")
VOID_CAST_RE = re.compile(r"^(?:\(\s*void\s*\)|static_cast\s*<\s*void\s*>\s*\()\s*")


def check_discarded_status(root: str, status_names, findings):
    for rel in iter_files(root, STATUS_CALL_DIRS, (".cc", ".cpp")):
        text = strip_code(read(root, rel))
        # Statement starts: position after each ';', '{' or '}'.
        for m in re.finditer(r"[;{}]", "\x00" + text):
            start = m.start()  # offset into text of the char after ;{}
            chunk = text[start:start + 4096]
            stripped = chunk.lstrip()
            lead = len(chunk) - len(stripped)
            cast = VOID_CAST_RE.match(stripped)
            body = stripped[cast.end():] if cast else stripped
            call = CALL_HEAD_RE.match(body)
            if not call:
                continue
            name = call.group("name")
            if name not in status_names:
                continue
            first_word = re.match(r"[A-Za-z_]\w*", body)
            if first_word and first_word.group(0) in STATEMENT_KEYWORDS:
                continue
            open_pos = body.index("(", call.start("name"))
            close = match_paren(body, open_pos)
            if close == -1:
                continue
            tail = body[close + 1:].lstrip()
            is_cast_discard = bool(cast)
            if is_cast_discard:
                # (void)call(...)  — tail after the call must close the cast
                # for static_cast form, then hit ';'.
                tail = tail.lstrip(") \t\n")
            if not tail.startswith(";"):
                continue  # result is used (chained, compared, returned...)
            pos = start + lead
            via = " via (void) cast" if is_cast_discard else ""
            findings.append(Finding(
                rel, line_of(text, pos), "discarded-status",
                f"result of Status-returning '{name}(...)' is discarded"
                f"{via}; handle it, propagate it, or call .IgnoreError()"))


# --------------------------------------------------------------------------
# Rules: rng-discipline, stdio-in-library, using-namespace, include-guard
# --------------------------------------------------------------------------


def check_token_bans(root: str, findings):
    for rel in iter_files(root, LIBRARY_DIRS, (".h", ".cc")):
        text = strip_code(read(root, rel))
        if rel not in RNG_EXEMPT and not rel.endswith(os.path.join("util", "rng.h")):
            for pattern, what in RNG_BANNED:
                for m in pattern.finditer(text):
                    findings.append(Finding(
                        rel, line_of(text, m.start()), "rng-discipline",
                        f"{what} — all randomness must flow through "
                        "wsd::Rng with an explicit seed (src/util/rng.cc)"))
        if rel not in STDIO_EXEMPT:
            for pattern, what in STDIO_BANNED:
                for m in pattern.finditer(text):
                    findings.append(Finding(
                        rel, line_of(text, m.start()), "stdio-in-library",
                        f"{what} in library code — use WSD_LOG "
                        "(src/util/logging.h); stdout belongs to wsdctl"))


def check_headers(root: str, findings):
    header_dirs = LIBRARY_DIRS + EXTRA_HEADER_DIRS
    for rel in iter_files(root, header_dirs, (".h",)):
        text = read(root, rel)
        stripped = strip_code(text)
        for m in re.finditer(r"\busing\s+namespace\b", stripped):
            findings.append(Finding(
                rel, line_of(stripped, m.start()), "using-namespace",
                "`using namespace` in a header leaks into every includer"))
        expected = "WSD_" + re.sub(r"[^A-Za-z0-9]", "_",
                                   rel.split(os.sep, 1)[-1]
                                   if rel.startswith("src" + os.sep)
                                   else rel).upper() + "_"
        guard = re.search(r"#ifndef\s+(\S+)\s*\n\s*#define\s+(\S+)", text)
        # Repo decision (PR 9): canonical WSD_<PATH>_H_ guards uniformly,
        # never `#pragma once` — guards are greppable, collision-checkable
        # by this rule, and behave identically for hard-linked files.
        pragma = re.search(r"#\s*pragma\s+once\b", stripped)
        if pragma:
            findings.append(Finding(
                rel, line_of(stripped, pragma.start()), "include-guard",
                "#pragma once — this repo standardizes on canonical "
                f"#ifndef {expected} guards instead"))
        if not guard:
            findings.append(Finding(
                rel, 1, "include-guard",
                f"no include guard; expected #ifndef {expected}"))
        elif guard.group(1) != expected or guard.group(2) != expected:
            findings.append(Finding(
                rel, line_of(text, guard.start()), "include-guard",
                f"guard '{guard.group(1)}' does not match canonical "
                f"'{expected}'"))


# --------------------------------------------------------------------------
# Rule: simd-confinement
# --------------------------------------------------------------------------

SIMD_BANNED = [
    (re.compile(r"#\s*include\s*<(imm|emm|xmm|pmm|smm|tmm|wmm|nmm|ammintrin|"
                r"avx\w*|x86)intrin\.h>"),
     "x86 intrinsics header"),
    (re.compile(r"\b_mm\d*_\w+\s*\("), "_mm* intrinsic"),
    (re.compile(r"\b__m(64|128|256|512)[di]?\b"), "vector register type"),
    (re.compile(r"\b__builtin_cpu_supports\s*\("), "__builtin_cpu_supports"),
]


def check_simd_confinement(root: str, findings):
    for rel in iter_files(root, LIBRARY_DIRS, (".h", ".cc")):
        text = strip_code(read(root, rel))
        for pattern, what in SIMD_BANNED:
            for m in pattern.finditer(text):
                findings.append(Finding(
                    rel, line_of(text, m.start()), "simd-confinement",
                    f"{what} in library code — the scan runs byte loops "
                    "only; see docs/ARCHITECTURE.md, \"Why the scan runs "
                    "byte loops only\", for what a vector path must show "
                    "first"))


# --------------------------------------------------------------------------
# Rule: attr-switch
# --------------------------------------------------------------------------

# Everywhere C++ lives; a new switch-on-attr in a bench, test, or tool is
# just as much a registry bypass as one in src/.
ATTR_SWITCH_DIRS = ("src", "tools", "bench", "examples", "tests", "fuzz")
# The registry TU is the single place allowed to dispatch on the enum.
ATTR_SWITCH_ALLOWED_RE = re.compile(
    r"^src/extract/attribute_registry\.(h|cc)$")
ATTR_CASE_RE = re.compile(r"\bcase\s+(?:wsd::)?Attribute::")
ATTR_SWITCH_HEAD_RE = re.compile(r"\bswitch\s*\(")
# Condition mentions an attribute: a variable/member named attr* (attr,
# attr_, meta.attr, spec.attr) or the Attribute type itself (casts).
ATTR_COND_RE = re.compile(r"\battr\w*\b|\bAttribute\b")


def check_attr_switch(root: str, findings):
    for rel in iter_files(root, ATTR_SWITCH_DIRS, (".h", ".cc", ".cpp")):
        if ATTR_SWITCH_ALLOWED_RE.match(rel.replace(os.sep, "/")):
            continue
        text = strip_code(read(root, rel))
        for m in ATTR_CASE_RE.finditer(text):
            findings.append(Finding(
                rel, line_of(text, m.start()), "attr-switch",
                "`case Attribute::` outside the registry TU — per-attribute "
                "behavior belongs in an AttributeSpec descriptor/hook "
                "(src/extract/attribute_registry.cc)"))
        for m in ATTR_SWITCH_HEAD_RE.finditer(text):
            close = match_paren(text, m.end() - 1)
            if close == -1:
                continue
            if ATTR_COND_RE.search(text[m.end():close]):
                findings.append(Finding(
                    rel, line_of(text, m.start()), "attr-switch",
                    "`switch` over an attribute outside the registry TU — "
                    "add a field or hook to AttributeSpec instead "
                    "(src/extract/attribute_registry.cc)"))


# --------------------------------------------------------------------------
# Rule: test-hook
# --------------------------------------------------------------------------

# The wrapper layer defines the macro.
TEST_HOOK_EXEMPT = {os.path.join("src", "util", "mutex.h")}
TEST_HOOK_BANNED = [
    (re.compile(r"\b\w*ForTest(?:ing)?\b"), "test-only hook"),
    (re.compile(r"\bNO_THREAD_SAFETY_ANALYSIS\b"),
     "NO_THREAD_SAFETY_ANALYSIS"),
]


def check_test_hooks(root: str, findings):
    for rel in iter_files(root, LIBRARY_DIRS, (".h", ".cc")):
        if rel in TEST_HOOK_EXEMPT:
            continue
        text = strip_code(read(root, rel))
        for pattern, what in TEST_HOOK_BANNED:
            for m in pattern.finditer(text):
                findings.append(Finding(
                    rel, line_of(text, m.start()), "test-hook",
                    f"{what} in library code — test through the public "
                    "API, and keep every function under the lock-discipline "
                    "analysis"))


# --------------------------------------------------------------------------
# Rules: raw-concurrency, guarded-field
# --------------------------------------------------------------------------

# The annotated wrapper layer itself is the only place allowed to touch the
# std primitives.
CONCURRENCY_EXEMPT = {os.path.join("src", "util", "mutex.h")}

RAW_CONCURRENCY_BANNED = [
    (re.compile(r"#\s*include\s*<(mutex|condition_variable|shared_mutex)>"),
     "raw concurrency header include"),
    (re.compile(r"\bstd::(recursive_|timed_|recursive_timed_|shared_)?"
                r"mutex\b"), "std::mutex family"),
    (re.compile(r"\bstd::(lock_guard|unique_lock|scoped_lock|shared_lock)\b"),
     "raw RAII lock type"),
    (re.compile(r"\bstd::condition_variable(_any)?\b"),
     "std::condition_variable"),
    (re.compile(r"\bstd::(once_flag|call_once)\b"),
     "std::once_flag/call_once"),
]


def check_raw_concurrency(root: str, findings):
    for rel in iter_files(root, LIBRARY_DIRS, (".h", ".cc")):
        if rel in CONCURRENCY_EXEMPT:
            continue
        text = strip_code(read(root, rel))
        for pattern, what in RAW_CONCURRENCY_BANNED:
            for m in pattern.finditer(text):
                findings.append(Finding(
                    rel, line_of(text, m.start()), "raw-concurrency",
                    f"{what} outside src/util/mutex.h — use the annotated "
                    "wsd::Mutex/MutexLock/CondVar wrappers so clang "
                    "-Wthread-safety can check the lock discipline"))


# Matches a class/struct head up to its opening brace, tolerating attribute
# macros like WSD_CAPABILITY("mutex") between keyword and name.
CLASS_HEAD_RE = re.compile(
    r"(?<![\w_])(?<!enum\s)(class|struct)\s+[^;{}()]*?\{")
# A Mutex declared by value as a member (references/pointers are views of
# someone else's mutex and carry no guarding obligation here).
MUTEX_MEMBER_RE = re.compile(
    r"(?:^|[;{}\n])\s*(?:mutable\s+)?(?:wsd::)?Mutex\s+(\w+)\s*;")
FIELD_DECL_RE = re.compile(
    r"^[\w:<>,*&\s\[\]\.]+?[\s*&](\w+)\s*(?:=[^;]*)?$")
FIELD_SKIP_TYPES = re.compile(
    r"\b(Mutex|CondVar|std::atomic|atomic_bool|atomic_int|"
    r"atomic_size_t|atomic_uint\w*)\b")
FIELD_SKIP_KEYWORDS = re.compile(
    r"^\s*(static|constexpr|using|typedef|friend|enum|class|struct|"
    r"template|operator|explicit|virtual|inline)\b")


def match_brace(text: str, open_pos: int) -> int:
    """Index of the '}' matching the '{' at open_pos, or -1."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return -1


def blank_nested_braces(body: str) -> str:
    """Replaces every top-level nested {...} region in a class body with a
    ';' terminator (plus padding) so inline function bodies and brace
    initializers cannot swallow the following declaration, while offsets
    are preserved."""
    out = list(body)
    i, n = 0, len(body)
    while i < n:
        if body[i] == "{":
            close = match_brace(body, i)
            if close == -1:
                break
            for j in range(i, close + 1):
                if body[j] != "\n":
                    out[j] = " "
            out[close] = ";"
            i = close + 1
        else:
            i += 1
    return "".join(out)


def has_unguarded_marker(lines, decl_first_line: int) -> bool:
    """True if an `unguarded:` waiver covers this declaration. A waiver
    comment covers the blank-line-delimited paragraph it sits in, so one
    comment can head a contiguous block of related fields."""
    idx = decl_first_line - 1  # 0-based index of the declaration's 1st line
    k = idx
    while k >= 0 and lines[k].strip():
        if "unguarded:" in lines[k]:
            return True
        k -= 1
    return False


def check_guarded_fields(root: str, findings):
    for rel in iter_files(root, LIBRARY_DIRS, (".h", ".cc")):
        if rel in CONCURRENCY_EXEMPT:
            continue
        raw = read(root, rel)
        text = strip_code(raw)
        raw_lines = raw.split("\n")
        for head in CLASS_HEAD_RE.finditer(text):
            open_pos = head.end() - 1
            close_pos = match_brace(text, open_pos)
            if close_pos == -1:
                continue
            body = blank_nested_braces(text[open_pos + 1:close_pos])
            if not MUTEX_MEMBER_RE.search(body):
                continue
            base = open_pos + 1
            # Walk top-level statements (nested regions are now ';').
            start = 0
            for m in re.finditer(r";", body):
                stmt = body[start:m.start()]
                stmt_off = start
                start = m.end()
                clean = re.sub(r"\b(public|private|protected)\s*:", " ", stmt)
                clean = clean.strip()
                if not clean or "(" in clean or ")" in clean:
                    continue  # empty, function decl, or annotated via macro
                if FIELD_SKIP_KEYWORDS.match(clean):
                    continue
                if "GUARDED_BY" in clean:
                    continue
                decl = FIELD_DECL_RE.match(clean)
                if not decl:
                    continue
                type_part = clean[:clean.rindex(decl.group(1))]
                if FIELD_SKIP_TYPES.search(type_part) or not type_part.strip():
                    continue
                # const members (including `T* const`) are immutable after
                # construction and need no lock to read.
                if re.match(r"(mutable\s+)?const\b", type_part) or \
                        re.search(r"[*&]\s*const\s*$", type_part.strip()):
                    continue
                lead_ws = len(stmt) - len(stmt.lstrip())
                pos = base + stmt_off + lead_ws
                line = line_of(text, pos)
                if has_unguarded_marker(raw_lines, line):
                    continue
                findings.append(Finding(
                    rel, line, "guarded-field",
                    f"field '{decl.group(1)}' shares a class with a Mutex "
                    "but has no GUARDED_BY annotation; guard it, or waive "
                    "with a preceding `// unguarded: <reason>` comment"))


# --------------------------------------------------------------------------
# Rule: rng-sequencing
# --------------------------------------------------------------------------

# An Rng variable or parameter: `Rng rng(seed)`, `Rng& rng`, `Rng* rng_`.
# Lower-case names only, so `Rng Fork()` and `Rng Rng::Fork()` (functions)
# are not taken for variables.
RNG_VAR_RE = re.compile(r"(?<![\w:])(?:wsd::)?Rng\s*[&*]?\s*([a-z_]\w*)\b")
# Inside the Rng implementation, its members draw through unqualified calls.
RNG_IMPL_FILES = {os.path.join("src", "util", "rng.h"),
                  os.path.join("src", "util", "rng.cc")}
RNG_MEMBER_CALL_RE = re.compile(
    r"(?<![\w.:>])(?:Next|NextDouble|Uniform|UniformInt|Bernoulli|Normal|"
    r"Exponential|Poisson|Pareto|LogNormal|Fork|Shuffle|Index)\s*\(")


def rng_draw_positions(stmt: str, names, impl: bool):
    """Offsets in `stmt` of each draw: a call on a named Rng, the Rng
    passed as a call argument, or (in the Rng implementation) an
    unqualified member call."""
    positions = []
    for name in names:
        n = re.escape(name)
        positions += [m.start() for m in re.finditer(
            rf"(?<![\w.>]){n}\s*(?:\.|->)\s*[A-Za-z_]\w*\s*\(", stmt)]
        positions += [m.start(1) for m in re.finditer(
            rf"[(,]\s*[&*]?\s*({n})\s*[,)]", stmt)]
    if impl:
        positions += [m.start() for m in RNG_MEMBER_CALL_RE.finditer(stmt)]
    return sorted(positions)


def conditional_spans(stmt: str):
    """(question, colon, end) for each conditional expression in `stmt`:
    the else arm runs to the first `,` `;` or unmatched closing bracket at
    its own depth."""
    spans = []
    for q, c in enumerate(stmt):
        if c != "?":
            continue
        depth, nested, colon = 0, 0, -1
        i = q + 1
        while i < len(stmt):
            ch = stmt[i]
            if ch in "([{":
                depth += 1
            elif ch in ")]}":
                depth -= 1
                if depth < 0:
                    break
            elif depth == 0 and ch == "?":
                nested += 1
            elif depth == 0 and ch == ":":
                if stmt[i + 1:i + 2] == ":" or stmt[i - 1] == ":":
                    pass  # scope operator
                elif nested == 0:
                    colon = i
                    break
                else:
                    nested -= 1
            i += 1
        if colon == -1:
            continue
        depth, end = 0, len(stmt)
        for i in range(colon + 1, len(stmt)):
            ch = stmt[i]
            if ch in "([{":
                depth += 1
            elif ch in ")]}":
                depth -= 1
                if depth < 0:
                    end = i
                    break
            elif depth == 0 and ch in ",;":
                end = i
                break
        spans.append((q, colon, end))
    return spans


def count_rng_draws(lo: int, hi: int, draws, spans) -> int:
    """Draws in stmt[lo:hi], each conditional expression counting as the
    larger of its two arms."""
    total, i = 0, lo
    for q, colon, end in spans:
        if q < i or q >= hi:
            continue
        total += sum(1 for p in draws if i <= p < q)
        total += max(count_rng_draws(q + 1, colon, draws, spans),
                     count_rng_draws(colon + 1, end, draws, spans))
        i = end
    return total + sum(1 for p in draws if i <= p < hi)


def check_rng_sequencing(root: str, findings):
    for rel in iter_files(root, LIBRARY_DIRS, (".h", ".cc")):
        text = strip_code(read(root, rel))
        names = set(RNG_VAR_RE.findall(text))
        impl = rel in RNG_IMPL_FILES
        if not names and not impl:
            continue
        start = 0
        for m in re.finditer(r"[;{}]|$", text):
            stmt = text[start:m.start()]
            stmt_start = start
            start = m.end()
            draws = rng_draw_positions(stmt, names, impl)
            if len(draws) < 2:
                continue
            count = count_rng_draws(0, len(stmt), draws,
                                    conditional_spans(stmt))
            if count < 2:
                continue
            findings.append(Finding(
                rel, line_of(text, stmt_start + draws[0]), "rng-sequencing",
                f"statement draws from an Rng {count} times; C++ leaves the "
                "order of these draws to the compiler, so the output would "
                "differ between toolchains — draw into named locals, one "
                "per statement"))


# --------------------------------------------------------------------------
# Rule: frozen-oracle
# --------------------------------------------------------------------------


def find_frozen_regions(root: str, findings):
    """Returns {name: (rel, sha256)} for every well-formed frozen region."""
    regions = {}
    for rel in iter_files(root, LIBRARY_DIRS, (".h", ".cc")):
        text = read(root, rel)
        begins = [(m.start(), m.group(1)) for m in FROZEN_BEGIN_RE.finditer(text)]
        ends = {m.group(1): m.start() for m in FROZEN_END_RE.finditer(text)}
        for pos, name in begins:
            if name not in ends:
                findings.append(Finding(
                    rel, line_of(text, pos), "frozen-oracle",
                    f"WSD_FROZEN_BEGIN({name}) has no matching END"))
                continue
            if name in regions:
                findings.append(Finding(
                    rel, line_of(text, pos), "frozen-oracle",
                    f"duplicate frozen region '{name}'"))
                continue
            body = text[pos:ends[name]]
            digest = hashlib.sha256(body.encode()).hexdigest()
            regions[name] = (rel, digest)
        for name, pos in ends.items():
            if not any(n == name for _, n in begins):
                findings.append(Finding(
                    rel, line_of(text, pos), "frozen-oracle",
                    f"WSD_FROZEN_END({name}) has no matching BEGIN"))
    return regions


def check_frozen(root: str, findings, update: bool) -> None:
    regions = find_frozen_regions(root, findings)
    lock_path = os.path.join(root, FROZEN_LOCK)
    if update:
        with open(lock_path, "w", encoding="utf-8") as f:
            f.write("# sha256 of each WSD_FROZEN_BEGIN/END region.\n"
                    "# These are the legacy-scan equivalence oracles frozen"
                    " by PR 3 (do not\n# optimize); regenerate only for an"
                    " intentional change, via\n"
                    "#   tools/wsd_lint.py --update-frozen\n")
            for name in sorted(regions):
                rel, digest = regions[name]
                f.write(f"{digest}  {name}  {rel.replace(os.sep, '/')}\n")
        return
    if not os.path.exists(lock_path):
        findings.append(Finding(
            FROZEN_LOCK, 1, "frozen-oracle",
            "lock file missing; run tools/wsd_lint.py --update-frozen"))
        return
    locked = {}
    with open(lock_path, encoding="utf-8") as f:
        for ln, raw in enumerate(f, 1):
            raw = raw.strip()
            if not raw or raw.startswith("#"):
                continue
            parts = raw.split()
            if len(parts) != 3:
                findings.append(Finding(FROZEN_LOCK, ln, "frozen-oracle",
                                        f"malformed lock line: {raw!r}"))
                continue
            locked[parts[1]] = (parts[2], parts[0])
    for name, (rel, digest) in sorted(regions.items()):
        if name not in locked:
            findings.append(Finding(
                rel, 1, "frozen-oracle",
                f"region '{name}' not in {FROZEN_LOCK}; run --update-frozen"))
        elif locked[name][1] != digest:
            findings.append(Finding(
                rel, 1, "frozen-oracle",
                f"frozen region '{name}' was modified (it is the do-not-edit"
                " legacy oracle); revert, or run --update-frozen if the"
                " change is intentional"))
    for name, (rel, _) in sorted(locked.items()):
        if name not in regions:
            findings.append(Finding(
                FROZEN_LOCK, 1, "frozen-oracle",
                f"locked region '{name}' no longer exists in {rel}"))


# --------------------------------------------------------------------------
# Driver + self-test
# --------------------------------------------------------------------------


def run_lint(root: str, update_frozen: bool = False):
    findings = []
    status_names = collect_status_functions(root, findings)
    check_discarded_status(root, status_names, findings)
    check_token_bans(root, findings)
    check_headers(root, findings)
    check_simd_confinement(root, findings)
    check_attr_switch(root, findings)
    check_raw_concurrency(root, findings)
    check_guarded_fields(root, findings)
    check_rng_sequencing(root, findings)
    check_test_hooks(root, findings)
    check_frozen(root, findings, update_frozen)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


SELF_TEST_CASES = {
    # rule id -> (relative path, file contents that must trigger it)
    "discarded-status": ("src/util/bad_status.cc", """
#include "util/io_util.h"
namespace wsd {
void Leak() {
  WriteFileAtomic("x", "y");
  (void)EnsureDirectory("d");
}
}  // namespace wsd
"""),
    "missing-nodiscard": ("src/util/bad_decl.h", """
#ifndef WSD_UTIL_BAD_DECL_H_
#define WSD_UTIL_BAD_DECL_H_
#include "util/status.h"
namespace wsd {
Status UnannotatedThing(int x);
}
#endif  // WSD_UTIL_BAD_DECL_H_
"""),
    "rng-discipline": ("src/util/bad_rng.cc", """
#include <cstdlib>
#include <ctime>
namespace wsd {
int Roll() { srand(time(nullptr)); return std::rand(); }
}
"""),
    "stdio-in-library": ("src/util/bad_stdio.cc", """
#include <iostream>
namespace wsd {
void Shout() { std::cout << "hi\\n"; printf("hi\\n"); }
}
"""),
    "using-namespace": ("src/util/bad_using.h", """
#ifndef WSD_UTIL_BAD_USING_H_
#define WSD_UTIL_BAD_USING_H_
using namespace std;
#endif  // WSD_UTIL_BAD_USING_H_
"""),
    "include-guard": ("src/util/bad_guard.h", """
#ifndef TOTALLY_WRONG_GUARD_H
#define TOTALLY_WRONG_GUARD_H
#endif
"""),
    "raw-concurrency": ("src/util/bad_raw_mutex.cc", """
#include <mutex>
namespace wsd {
std::mutex g_mu;
int Locked() {
  std::lock_guard<std::mutex> lock(g_mu);
  return 1;
}
}  // namespace wsd
"""),
    "guarded-field": ("src/util/bad_guarded.h", """
#ifndef WSD_UTIL_BAD_GUARDED_H_
#define WSD_UTIL_BAD_GUARDED_H_
#include "util/mutex.h"
namespace wsd {
class Tally {
 public:
  void Add(int v);
 private:
  Mutex mu_;
  int counter_ = 0;
};
}  // namespace wsd
#endif  // WSD_UTIL_BAD_GUARDED_H_
"""),
    "rng-sequencing": ("src/corpus/bad_rng_order.cc", """
#include "util/rng.h"
namespace wsd {
int Pick(Rng& rng, int n) { return static_cast<int>(rng.Uniform(n)); }
int Draws(Rng& rng, bool small) {
  // One draw per arm of a conditional is fine; two operands are not.
  const int one = small ? Pick(rng, 3) : Pick(rng, 4);
  return one + Pick(rng, 10) * 10 + Pick(rng, 10);
}
}  // namespace wsd
"""),
    "frozen-oracle": ("src/util/bad_frozen.cc", """
// WSD_FROZEN_BEGIN(self_test_region)
int tampered = 1;
// WSD_FROZEN_END(self_test_region)
"""),
    "attr-switch": ("src/core/bad_attr_switch.cc", """
#include "core/domains.h"
namespace wsd {
int MentionWeight(Attribute attr) {
  // Allowed elsewhere: a plain comparison (no dispatch table implied).
  if (attr == Attribute::kIsbn) return 2;
  switch (attr) {
    case Attribute::kPhone:
      return 3;
    default:
      return 1;
  }
}
}  // namespace wsd
"""),
    "test-hook": ("src/serve/bad_test_hook.h", """
#ifndef WSD_SERVE_BAD_TEST_HOOK_H_
#define WSD_SERVE_BAD_TEST_HOOK_H_
#include "util/mutex.h"
namespace wsd {
class Cache {
 public:
  void EvictAllForTest() NO_THREAD_SAFETY_ANALYSIS;
};
}  // namespace wsd
#endif  // WSD_SERVE_BAD_TEST_HOOK_H_
"""),
    "simd-confinement": ("src/html/bad_simd.cc", """
#include <immintrin.h>
namespace wsd {
int CountLt(const char* p) {
  const __m128i block = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  return _mm_movemask_epi8(block);
}
}
"""),
}


def self_test(repo_root: str) -> int:
    """Each seeded violation must be detected, and a pristine mini-tree must
    lint clean. Runs in a temp copy; the real tree is untouched."""
    failures = []
    for rule, (rel, contents) in sorted(SELF_TEST_CASES.items()):
        with tempfile.TemporaryDirectory(prefix="wsd_lint_selftest_") as tmp:
            # Minimal tree: the status/io headers the cases include, plus
            # an up-to-date lock file so only the seeded issue fires.
            for support in ("src/util/status.h", "src/util/statusor.h",
                            "src/util/io_util.h"):
                src = os.path.join(repo_root, support)
                dst = os.path.join(tmp, support)
                os.makedirs(os.path.dirname(dst), exist_ok=True)
                with open(src, encoding="utf-8") as f:
                    data = f.read()
                with open(dst, "w", encoding="utf-8") as f:
                    f.write(data)
            os.makedirs(os.path.join(tmp, "tools"), exist_ok=True)
            baseline = run_lint(tmp, update_frozen=True)  # writes lock
            baseline = run_lint(tmp)
            if baseline:
                failures.append(f"{rule}: support tree not clean: "
                                f"{baseline[0]}")
                continue
            path = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(contents)
            found = run_lint(tmp)
            if not any(f.rule == rule for f in found):
                failures.append(
                    f"{rule}: seeded violation in {rel} was NOT detected "
                    f"(got: {[str(f) for f in found]})")
    if failures:
        for f in failures:
            print(f"SELF-TEST FAIL {f}", file=sys.stderr)
        return 1
    print(f"self-test: all {len(SELF_TEST_CASES)} seeded violations "
          "detected", file=sys.stderr)
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script's dir)")
    ap.add_argument("--update-frozen", action="store_true",
                    help="regenerate tools/frozen_oracle.lock from markers")
    ap.add_argument("--self-test", action="store_true",
                    help="verify every rule fires on a seeded violation")
    ap.add_argument("-q", "--quiet", action="store_true")
    args = ap.parse_args()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"wsd_lint: no src/ under {root}", file=sys.stderr)
        return 2

    if args.self_test:
        return self_test(root)

    findings = run_lint(root, update_frozen=args.update_frozen)
    for f in findings:
        print(f)
    if not args.quiet:
        print(f"wsd_lint: {len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
