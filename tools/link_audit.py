#!/usr/bin/env python3
"""Link audit: every function src/ defines is linked by a production binary.

Usage:
    link_audit.py [--build-dir DIR]
    link_audit.py --self-test

The tool configures and builds DIR (default build-audit) with the GNU
toolchain at -O0, one section per function (-ffunction-sections), linked
with --gc-sections. Each binary then keeps exactly the functions it can
reach, and at -O0 nothing is inlined, so a header-inline function is a
symbol of its own. The production binaries are the bench drivers,
bench/e2e's slc_benchmark and the examples; the test binaries are the gtest
suites under tests/. Their text symbols are compared with nm in two passes:

    pass 1  strong text symbols of the src/ objects that no production
            binary contains (this includes functions nothing calls);
    pass 2  text symbols a test binary contains whose definition lies under
            src/ (nm -l line info) and that no production binary contains
            (this catches header-inline functions, which pass 1 misses).

A third pass reads the source instead: an inline function nothing calls
emits no symbol, so neither nm pass can see it. It flags each function a
src/ header defines whose name appears in no file under src/, bench/ or
examples/ except at its definitions (comments and string literals aside),
by qualified name. The allocator hooks the standard library calls
(allocate, deallocate) are not audited.

Only objects whose source still exists are audited: a reused build tree
keeps the object of a deleted source (CMakeFiles/<target>.dir/<path>.o for
src/<path>), and no binary links its functions any more.

Symbols are compared by demangled signature, so each overload is audited on
its own, and a lambda counts as part of the function that defines it.
Constructors, destructors, assignment and comparison operators are not
audited. A flagged function stays only when link_audit_allowlist.txt
names it, one `signature | kind: reason` a line, with a kind from REASONS;
the third pass matches an entry by the qualified name before its `(`.
The audit under-reports virtual functions, which vtables keep.

Exit status: 0 when every flagged function is allowlisted and every
allowlist entry is still flagged; 1 otherwise (one finding a line); 2 when
the build or nm fails.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ALLOWLIST = Path(__file__).resolve().with_name("link_audit_allowlist.txt")
PRODUCTION_DIRS = ("bench", "bench/e2e", "examples")
TEST_DIRS = ("tests",)
TEXT_TYPES = {"T", "t", "W"}
# observer: read only by tests for now, kept for the observability snapshot;
# memo: goes with the decision memo, which bench/e2e still names;
# input-check: checks input that comes from outside the process.
REASONS = ("observer", "memo", "input-check")
EXEMPT_OPERATORS = {"operator=", "operator==", "operator!=", "operator<", "operator>",
                    "operator<=", "operator>=", "operator<=>"}
# Where the third pass looks for a header function's name.
SOURCE_DIRS = ("src", "bench", "examples")
# Hooks the standard library calls by name (an allocator's), never src/.
STD_HOOKS = {"allocate", "deallocate"}


def parse_nm(listing: str) -> list[tuple[str, str, str]]:
    """(type, demangled signature, defining file) per line of `nm -C [-l]`."""
    out = []
    for line in listing.splitlines():
        parts = line.split(" ", 2)
        if len(parts) != 3:
            continue
        name, _, where = parts[2].partition("\t")
        out.append((parts[1], name, where.rpartition(":")[0]))
    return out


def top_level_split(text: str, sep: str) -> list[str]:
    """Splits at `sep` outside <> and () nesting."""
    parts, depth, start, i = [], 0, 0, 0
    while i < len(text):
        if text.startswith("operator", i):
            i += len("operator")  # operator<, operator() and the like do not nest
            if text.startswith(("()", "[]"), i):
                i += 2
            while i < len(text) and text[i] in "<>=!":
                i += 1
            continue
        c = text[i]
        if c in "<(":
            depth += 1
        elif c in ">)":
            depth -= 1
        elif depth == 0 and text.startswith(sep, i):
            parts.append(text[start:i])
            start = i + len(sep)
            i = start
            continue
        i += 1
    parts.append(text[start:])
    return parts


def exempt(signature: str) -> bool:
    """Constructors, destructors, assignment and comparison operators."""
    end, depth = len(signature), 0
    for i in range(len(signature) - 1, -1, -1):  # the parameter list's '('
        if signature[i] == ")":
            depth += 1
        elif signature[i] == "(":
            depth -= 1
            if depth == 0:
                end = i
                break
    scopes = top_level_split(top_level_split(signature[:end], " ")[-1], "::")
    last = scopes[-1]
    if last.startswith("~") or last in EXEMPT_OPERATORS:
        return True
    return len(scopes) > 1 and last.split("<")[0] == scopes[-2].split("<")[0]


def owner(signature: str) -> str:
    """A lambda is audited as part of the function that defines it."""
    head, sep, _ = signature.partition("::{lambda(")
    return top_level_split(head, " ")[-1] if sep else signature


def source_of(obj: Path, obj_root: Path) -> Path | None:
    """The src/-relative source of obj_root/CMakeFiles/<target>.dir/<path>.o
    (that is, <path>), or None for an object laid out otherwise."""
    parts = obj.relative_to(obj_root).parts
    if len(parts) < 3 or parts[0] != "CMakeFiles" or not parts[1].endswith(".dir") \
            or obj.suffix != ".o":
        return None
    return Path(*parts[2:]).with_suffix("")


def live_objects(objects: list[Path], obj_root: Path, src_root: Path) -> list[Path]:
    """The objects whose source still exists under src_root; an object laid
    out otherwise is kept."""
    return [o for o in objects
            if (src := source_of(o, obj_root)) is None or (src_root / src).is_file()]


def flagged(objects: list[str], production: list[str], tests: list[str],
            src_dir: str) -> set[str]:
    """Signatures of src/ functions that no production binary links.

    objects, production and tests are `nm -C --defined-only` listings of the
    src/ objects, the production binaries and the test binaries (the tests
    with -l); src_dir is the absolute src/ path ending in a separator.
    """
    linked = {name for listing in production for typ, name, _ in parse_nm(listing)
              if typ in TEXT_TYPES}
    out = {name for listing in objects for typ, name, _ in parse_nm(listing)
           if typ == "T" and name not in linked}
    out |= {name for listing in tests for typ, name, where in parse_nm(listing)
            if typ in TEXT_TYPES and where.startswith(src_dir) and name not in linked}
    return {owner(name) for name in out
            if owner(name) not in linked and not exempt(owner(name))}


def parse_allowlist(text: str) -> tuple[dict[str, str], list[str]]:
    """({signature: reason}, findings for malformed lines)."""
    entries, findings = {}, []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        signature, sep, reason = (s.strip() for s in line.partition("|"))
        kind = reason.partition(":")[0]
        if not sep or kind not in REASONS or not reason.partition(":")[2].strip():
            findings.append(f"allowlist line {lineno}: want `signature | kind: reason` with "
                            f"kind one of {', '.join(REASONS)}")
            continue
        entries[signature] = reason
    return entries, findings


def strip_code(text: str) -> str:
    """`text` with comments, preprocessor lines (continued ones too), and
    string and character literals blanked out."""
    return re.sub(r'//[^\n]*|/\*.*?\*/|^[ \t]*#(?:[^\n]*\\\n)*[^\n]*|"(?:\\.|[^"\\\n])*"|'
                  r"(?<!\w)'(?:\\.|[^'\\\n])*'",
                  lambda m: '""' if m.group(0)[0] in "\"'" else "", text, flags=re.S | re.M)


def header_functions(text: str) -> list[str]:
    """Qualified names of the functions a header defines (with a body) at
    namespace or class scope; constructors, destructors and operators are
    left out. A scope is read off the text before each `{` since the last
    `;`, `{` or `}`."""
    code = strip_code(text)
    scopes: list[str | None] = []  # a namespace or class name; None for any other brace
    out, start = [], 0
    for m in re.finditer(r"[;{}]", code):
        head = " ".join(code[start:m.end() - 1].split())
        start = m.end()
        if m.group(0) == ";":
            continue
        if m.group(0) == "}":
            if scopes:
                scopes.pop()
            continue
        if scopes and scopes[-1] is None:  # inside a function body or an initializer
            scopes.append(None)
            continue
        if ns := re.fullmatch(r"(?:inline )?namespace ?([\w:]*)", head):
            scopes.append(ns.group(1))
            continue
        if cls := re.match(r"(?:template ?<.*> ?)?(?:class|struct|union) (.*)", head):
            if "enum" not in head:
                rest = re.sub(r"\w+ ?\([^)]*\) ?", "", cls.group(1))  # alignas(), macros
                scopes.append(re.match(r"\w*", rest).group(0))
                continue
        fn = re.match(r"(?:template ?<.*?> )?[^(]*?(~?[\w:]+) ?\(", head)
        scopes.append(None)
        if fn is None or "=" in head[:fn.start(1)] or head.startswith(("enum", "return")):
            continue
        name = fn.group(1).split("::")[-1]
        owners = [s for s in scopes[:-1] if s]
        if name.startswith(("~", "operator")) or (owners and name == owners[-1]) \
                or name in STD_HOOKS:
            continue
        out.append("::".join(owners + fn.group(1).split("::")))
    return out


def uncalled_header_functions(root: Path) -> set[str]:
    """Qualified names of the functions src/ headers define whose name
    appears nowhere under SOURCE_DIRS except at such a definition."""
    uses: dict[str, int] = {}
    defined: list[str] = []
    for sub in SOURCE_DIRS:
        for path in sorted((root / sub).rglob("*")):
            if path.suffix not in (".h", ".cpp"):
                continue
            text = path.read_text(encoding="utf-8")
            for word in re.findall(r"\w+", strip_code(text)):
                uses[word] = uses.get(word, 0) + 1
            if sub == "src" and path.suffix == ".h":
                defined += header_functions(text)
    definitions: dict[str, int] = {}
    for q in defined:
        definitions[q.split("::")[-1]] = definitions.get(q.split("::")[-1], 0) + 1
    return {q for q in defined if uses.get(q.split("::")[-1], 0) <= definitions[q.split("::")[-1]]}


def check(flagged_names: set[str], allowlist_text: str,
          uncalled: frozenset[str] | set[str] = frozenset()) -> list[str]:
    allowed, findings = parse_allowlist(allowlist_text)
    allowed_names = {s.partition("(")[0] for s in allowed}
    for name in sorted(flagged_names - allowed.keys()):
        findings.append(f"{name}: no production binary links it; delete it, move it to "
                        f"tests/, or allowlist it with a reason")
    for name in sorted(uncalled - allowed_names):
        findings.append(f"{name}: a src/ header defines it and nothing under src/, bench/ or "
                        f"examples/ names it; delete it or allowlist it with a reason")
    for name in sorted(allowed.keys() - flagged_names):
        if name.partition("(")[0] not in uncalled:
            findings.append(f"{name}: allowlisted but no longer flagged; drop the entry")
    return findings


def nm(path: Path, lines: bool = False) -> str:
    cmd = ["nm", "-C", "--defined-only"] + (["-l"] if lines else []) + [str(path)]
    return subprocess.run(cmd, check=True, capture_output=True, text=True).stdout


def elf_executables(build_dir: Path, subdirs: tuple[str, ...]) -> list[Path]:
    out = []
    for sub in subdirs:
        for p in sorted((build_dir / sub).iterdir()):
            if p.is_file() and os.access(p, os.X_OK):
                with p.open("rb") as f:
                    if f.read(4) == b"\x7fELF":
                        out.append(p)
    return out


def audit(build_dir: Path) -> int:
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "-B", str(build_dir), "-S", str(REPO), "-DCMAKE_BUILD_TYPE=Debug",
                    "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -g", "-DCMAKE_CXX_FLAGS=-ffunction-sections",
                    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections", "-DSLC_BUILD_TESTS=ON",
                    "-DSLC_BUILD_BENCH=ON", "-DSLC_BUILD_EXAMPLES=ON"],
                   check=True, stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs], check=True,
                   stdout=subprocess.DEVNULL)
    objects = live_objects(sorted((build_dir / "src").rglob("*.o")), build_dir / "src",
                           REPO / "src")
    production = elf_executables(build_dir, PRODUCTION_DIRS)
    tests = elf_executables(build_dir, TEST_DIRS)
    if not objects or not production or not tests:
        print(f"link_audit.py: {build_dir} lacks src/ objects, production or test binaries",
              file=sys.stderr)
        return 2
    names = flagged([nm(p) for p in objects], [nm(p) for p in production],
                    [nm(p, lines=True) for p in tests], str(REPO / "src") + os.sep)
    uncalled = uncalled_header_functions(REPO)
    findings = check(names, ALLOWLIST.read_text(encoding="utf-8"), uncalled)
    for line in findings:
        print(line)
    print(f"link_audit.py: {len(objects)} src/ objects, {len(production)} production and "
          f"{len(tests)} test binaries; {len(names)} flagged, {len(uncalled)} uncalled in "
          f"headers, {len(findings)} findings")
    return 1 if findings else 0


def self_test() -> int:
    src = "/repo/src/"
    objects = ["0000000000000000 T slc::used()\n"
               "0000000000000000 T slc::nobody_calls()\n"
               "0000000000000000 T slc::Engine::Engine()\n"
               "0000000000000000 T slc::Engine::operator==(slc::Engine const&) const\n"
               "0000000000000000 T slc::Engine::depth() const\n"]
    production = ["0000000000001000 T slc::used()\n"
                  "0000000000001010 W slc::Inline::linked() const\n"
                  "0000000000001020 T main\n"]
    tests = ["0000000000002000 T slc::used()\t/repo/src/a.cpp:3\n"
             "0000000000002010 W slc::Inline::linked() const\t/repo/src/a.h:9\n"
             "0000000000002020 W slc::Inline::test_only() const\t/repo/src/a.h:12\n"
             "0000000000002030 W slc::Inline::~Inline()\t/repo/src/a.h:14\n"
             "0000000000002040 T helper()\t/repo/tests/t.cpp:5\n"
             "0000000000002050 W slc::Engine::depth() const\t/repo/src/e.h:20\n"
             "0000000000002060 t auto slc::used()::{lambda(auto:1)#1}::operator()<int>(int) const"
             "\t/repo/src/a.cpp:4\n"
             "0000000000002070 t slc::nobody_calls()::{lambda()#1}::operator()() const"
             "\t/repo/src/a.cpp:8\n"]
    names = flagged(objects, production, tests, src)
    assert "slc::Inline::test_only() const" in names, "a src/ symbol only a test links is reported"
    assert "slc::nobody_calls()" in names, "a src/ function nothing links is reported"
    assert "slc::used()" not in names and "slc::Inline::linked() const" not in names, \
        "a symbol a production binary links is not reported"
    assert "helper()" not in names, "a function defined in tests/ is not audited"
    assert not any("lambda" in n for n in names), "a lambda is audited as its function"
    assert not any("Engine::Engine" in n or "~" in n or "==" in n for n in names), \
        "constructors, destructors and comparison operators are not audited"
    allow = ("# comment\n"
             "slc::Engine::depth() const | observer: queue depth\n"
             "slc::nobody_calls() | memo: goes with the memo\n"
             "slc::Inline::test_only() const | input-check: overrun\n")
    assert check(names, allow) == [], "allowlisted symbols are not reported"
    findings = check(names, allow.replace("slc::nobody_calls()", "slc::gone()"))
    assert len(findings) == 2 and findings[0].startswith("slc::nobody_calls()") \
        and findings[1].startswith("slc::gone(): allowlisted but no longer flagged"), \
        "a stale allowlist entry fails"
    assert len(check(names, allow.replace("observer:", "because:"))) == 2, \
        "an entry without a known reason fails"
    assert top_level_split("a::b<c::d>::operator<(x::y)", "::") == ["a", "b<c::d>", "operator<(x::y)"]
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "src" / "core").mkdir(parents=True)
        (Path(tmp) / "src" / "core" / "kept.cpp").touch()
        obj_root = Path(tmp) / "build" / "src"
        kept = obj_root / "CMakeFiles" / "slc_core.dir" / "core" / "kept.cpp.o"
        deleted = obj_root / "CMakeFiles" / "slc_core.dir" / "core" / "deleted.cpp.o"
        other = obj_root / "elsewhere.o"
        assert live_objects([kept, deleted, other], obj_root, Path(tmp) / "src") == [kept, other], \
            "the object of a deleted source is not audited"
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for sub in SOURCE_DIRS:
            (root / sub).mkdir()
        (root / "src" / "a.h").write_text(
            "#pragma once\n"
            "#include <cstdint>\n"
            "#define SLC_CAPABILITY(x) \\\n"
            "  SLC_ANNOTATION(capability(x))\n"
            "namespace slc {\n"
            "// word64() in a comment is no use of it\n"
            "class SLC_CAPABILITY(\"m\") View : public Base<int> {\n"
            " public:\n"
            "  explicit View(int n) : n_(n + 0x1'0000) {}\n"
            "  ~View() { n_ = 0; }\n"
            "  uint32_t word32(size_t i) const { return i ? 1 : helper(i); }\n"
            "  uint64_t word64(size_t i) const {\n"
            "    if (i) { return 2; }\n"
            "    return word32(i);\n"
            "  }\n"
            "  size_t depth() const { return n_; }\n"
            "  bool operator==(const View& o) const { return n_ == o.n_; }\n"
            "  static size_t helper(size_t i) { return i; }\n"
            " private:\n"
            "  int n_{0};\n"
            "};\n"
            "template <class T> struct Alloc {\n"
            "  void deallocate(T* p, size_t n) { (void)p, (void)n; }\n"
            "};\n"
            "namespace detail {\n"
            "inline int unused_free(int x) { return x; }\n"
            "}  // namespace detail\n"
            "}  // namespace slc\n", encoding="utf-8")
        (root / "bench" / "b.cpp").write_text(
            'int main() { slc::View v(1); puts("depth() word64"); return v.word32(0); }\n',
            encoding="utf-8")
        found = uncalled_header_functions(root)
        assert found == {"slc::View::word64", "slc::View::depth", "slc::detail::unused_free"}, \
            f"an uncalled header function is reported by qualified name, {sorted(found)}"
        allow = "slc::View::depth() const | observer: queue depth\n"
        findings = check(set(), allow, found)
        assert len(findings) == 2 and findings[0].startswith("slc::View::word64: a src/ header"), \
            "a header function is allowlisted by qualified name"
        assert check(set(), allow, set())[0].startswith("slc::View::depth() const: allowlisted"), \
            "an allowlist entry neither pass flags is stale"
    print("link_audit.py self-test: ok")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--build-dir", type=Path, default=REPO / "build-audit")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    try:
        return audit(args.build_dir.resolve())
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"link_audit.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
