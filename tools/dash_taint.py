#!/usr/bin/env python3
"""dash_taint: secrecy taint analysis for the MPC layer (DESIGN.md §11).

The secrecy argument of the protocol (PROTOCOL.md "What each party
learns") is a claim about which bytes flow where: per-party shares,
masks, and pre-reveal aggregates must never reach a log line, a trace,
or the wire except through the blessed reveal points enumerated in
tools/secrecy_allowlist.txt. Tier 1 of the enforcement is the
Secret<T>/Masked<T> type wall in src/mpc/secrecy.h; this tool is Tier 2,
a whole-tree flow check that also follows secret words after the MPC
layer has unwrapped them into plain types, where the type system cannot
see them.

Rules (stable IDs, mirrored by tools/dash_lint.py's DLxxx scheme):

  TL001 secret flows into a sink
      A value seeded tainted — declared Secret<T>/Masked<T>, assigned
      from a function returning one, or derived from either —
      reaches a sink (DASH_LOG, std::cout/cerr/clog, printf/fprintf,
      ByteWriter::Put*, Transport::Send, ProtocolTrace::Record) without
      passing through an allowlisted reveal point or DASH_DECLASSIFY.

  TL002 declassification outside the allowlist
      DASH_DECLASSIFY appears in a src/ file that has no
      `declassify@<path>` entry in the allowlist. Every declassifying
      file must be enumerated so reviewers see the full reveal surface.

  TL003 stale allowlist entry
      An allowlist entry is malformed, names a reveal point that no
      longer exists in the tree, references a `declassify@` file that no
      longer declassifies, or carries a round key that PROTOCOL.md's
      reveal-point table does not define. Dead entries are latent holes.

  TL004 passkey gate opened in source
      `#define DASH_MPC_INTERNAL` in a source file. The define is the
      capability that mints MpcPass (src/mpc/secrecy.h) and may only
      come from the build system (src/CMakeLists.txt, PRIVATE on the
      dash_mpc target).

Engines:

  clang   parses each translation unit from compile_commands.json with
          libclang (clang.cindex): function extents and variable types
          come from the AST, so taint seeding and scoping are exact,
          and the set of secret-source functions is extended with every
          function whose declared return type mentions Secret/Masked.
  regex   pure-text fallback with heuristic function tracking (brace
          depth + signature matching); same flow rules, used when the
          python3-clang bindings are unavailable.
  auto    clang when the bindings import and load, else regex (default).

Flow model (both engines, per function body):
  - seeds: Secret</Masked< declarations (parameters, locals, members),
    calls to secret-source functions.
  - propagation: an assignment (or range-for binding) whose right side
    mentions a tainted name taints the left side.
  - laundering: a right side that calls an allowlisted reveal point or
    DASH_DECLASSIFY produces a clean value.
  - sinks: a sink call mentioning a tainted name fires TL001 unless the
    line also calls an allowlisted reveal point, declassifies, or the
    enclosing function IS an allowlisted reveal point (their bodies are
    exactly where sealed material legitimately meets the wire).

Usage:
  tools/dash_taint.py                      # scan src/, exit 0/1
  tools/dash_taint.py FILE...              # scan specific files
  tools/dash_taint.py --self-test          # run against tools/taint_fixtures
  tools/dash_taint.py --mode regex|clang   # force an engine
  tools/dash_taint.py --build-dir DIR      # compile_commands.json location

A line can opt out with `// dash-taint: disable=TLxxx`; each use must
justify itself to a reviewer.
"""

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from dash_clang_common import (  # noqa: E402
    REPO_ROOT, args_for_path, in_main_file, load_compile_db, parse_tu,
    pick_engine as common_pick_engine, read_lines, rel, strip_noise)

ALLOWLIST_PATH = os.path.join(REPO_ROOT, "tools", "secrecy_allowlist.txt")
PROTOCOL_PATH = os.path.join(REPO_ROOT, "PROTOCOL.md")
FIXTURE_DIR = os.path.join(REPO_ROOT, "tools", "taint_fixtures")

DISABLE_RE = re.compile(r"//\s*dash-taint:\s*disable=(TL\d{3})")
FIXTURE_AS_RE = re.compile(r"dash-taint-fixture-as:\s*(\S+)")

SECRET_TYPE_RE = re.compile(r"\b(?:dash::)?(Secret|Masked)\s*<")
DECLASSIFY_RE = re.compile(r"\bDASH_DECLASSIFY\s*\(")
DEFINE_INTERNAL_RE = re.compile(r"^\s*#\s*define\s+DASH_MPC_INTERNAL\b")

# Sinks: where bytes become observable. Matched against comment-stripped
# code; the identifier must appear after the sink token to count as an
# argument (approximation — exact in spirit, line-granular in practice).
SINKS = [
    (re.compile(r"\bDASH_LOG\s*\("), "DASH_LOG"),
    (re.compile(r"\b(?:std::)?(?:cout|cerr|clog)\b\s*<<"), "std::ostream"),
    (re.compile(r"\bf?printf\s*\("), "printf"),
    (re.compile(r"[.\->]\s*Put\w*\s*\("), "ByteWriter"),
    (re.compile(r"[.\->]\s*Send\s*\("), "Transport::Send"),
    (re.compile(r"[.\->]\s*Record\s*\("), "ProtocolTrace::Record"),
]

ASSIGN_RE = re.compile(r"^[\w:<>,&*\s\[\]]*?\b(\w+)(?:\[[^\]]*\])?\s*[+|^-]?=\s*(.+)$")
RANGEFOR_RE = re.compile(r"\bfor\s*\([^;:]*?\b(\w+)\s*:\s*([^)]+)\)")
NOT_FUNC_KEYWORDS = {"if", "for", "while", "switch", "catch", "return",
                     "sizeof", "static_assert", "alignas", "decltype",
                     "defined"}
FUNC_SIG_RE = re.compile(
    r"([A-Za-z_]\w*(?:::~?[A-Za-z_]\w*)*)\s*\(([^;{}]*)\)\s*"
    r"(?:const\s*|noexcept\s*|override\s*|final\s*)*(?:->\s*[^{]+?)?$")


def secret_decl_names(code):
    """Names declared with a Secret</Masked< type on this line.

    Handles nested templates (std::vector<Secret<RingVector>> xs) by
    scanning balanced angle brackets from each Secret</Masked< match.
    """
    names = []
    for m in SECRET_TYPE_RE.finditer(code):
        i = m.end()  # just past '<'
        depth = 1
        while i < len(code) and depth > 0:
            if code[i] == "<":
                depth += 1
            elif code[i] == ">":
                depth -= 1
            i += 1
        # Skip outer template closers, refs, pointers.
        while i < len(code) and code[i] in "> \t&*":
            i += 1
        nm = re.match(r"([A-Za-z_]\w*)", code[i:])
        if nm and nm.group(1) not in ("operator",):
            names.append(nm.group(1))
    return names


def mentions_any(code, names):
    for n in names:
        if re.search(r"\b%s\b" % re.escape(n), code):
            return n
    return None


def calls_any(code, func_names):
    for n in func_names:
        # Allow qualified calls: DiffieHellman::PublicValue( etc.
        tail = n.rsplit("::", 1)[-1]
        if re.search(r"\b%s\s*\(" % re.escape(tail), code):
            return n
    return None


class Allowlist:
    """tools/secrecy_allowlist.txt: `<reveal-point> | <round-key> | <why>`."""

    def __init__(self):
        self.entries = []          # (lineno, name, round_key)
        self.names = set()         # reveal-point function names
        self.declassify_files = set()  # paths from declassify@<path>
        self.round_keys = set()

    @classmethod
    def load(cls, path):
        al = cls()
        al.path = path
        for i, raw in enumerate(read_lines(path), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split("|")]
            name = parts[0] if parts else ""
            key = parts[1] if len(parts) > 1 else ""
            al.entries.append((i, name, key, len(parts)))
            if name.startswith("declassify@"):
                al.declassify_files.add(name[len("declassify@"):])
            elif name:
                al.names.add(name)
            if key:
                al.round_keys.add(key)
        return al


class Findings:
    def __init__(self):
        self.items = []

    def report(self, relpath, lineno, rule, message):
        self.items.append((relpath, lineno, rule, message))

    def lines(self):
        return ["%s:%d: %s: %s" % it for it in self.items]


def scrape_secret_sources():
    """Function names whose results are secret material: every function
    declared in a src/ header to return a type mentioning Secret</Masked<.
    """
    sources = set()
    for dirpath, _, files in os.walk(os.path.join(REPO_ROOT, "src")):
        for f in sorted(files):
            if not f.endswith(".h"):
                continue
            for raw in read_lines(os.path.join(dirpath, f)):
                code, _ = strip_noise(raw, False)
                m = re.search(r"\b([A-Za-z_]\w*)\s*\(", code)
                # Return type mentions Secret</Masked< and this line
                # declares a function (name followed by open paren).
                if SECRET_TYPE_RE.search(code) and m:
                    before = code[:m.start(1)]
                    if SECRET_TYPE_RE.search(before):
                        sources.add(m.group(1))
    return sources


class TaintEngine:
    """Line-based flow analysis with function-scope tracking.

    The clang engine feeds exact function extents and declaration seeds
    through `function_ranges` / `extra_seeds`; the regex engine derives
    both heuristically from the text.
    """

    def __init__(self, allowlist, secret_sources, findings):
        self.allow = allowlist
        self.sources = secret_sources
        self.findings = findings

    def launders(self, code):
        return (calls_any(code, self.allow.names) is not None
                or DECLASSIFY_RE.search(code) is not None)

    def analyze_file(self, path, relpath, function_ranges=None,
                     extra_seeds=None):
        lines = read_lines(path)
        # Fixtures masquerade as in-tree paths so path-scoped rules fire.
        for line in lines[:5]:
            m = FIXTURE_AS_RE.search(line)
            if m:
                relpath = m.group(1)
                break

        declassifies = []
        in_block = False
        brace_depth = 0
        func_stack = []       # (name, entry_depth)
        pending_sig = ""
        file_taints = set()   # members / globals declared outside functions
        local_taints = set()

        def current_function(lineno):
            if function_ranges is not None:
                for (name, start, end) in function_ranges:
                    if start <= lineno <= end:
                        return name
                return None
            return func_stack[-1][0] if func_stack else None

        def enclosing_allowlisted(lineno):
            fn = current_function(lineno)
            if fn is None:
                return False
            for name in self.allow.names:
                if name.rsplit("::", 1)[-1] == fn.rsplit("::", 1)[-1]:
                    return True
            return False

        for i, raw in enumerate(lines, start=1):
            code, in_block = strip_noise(raw, in_block)
            stripped = code.strip()

            if DEFINE_INTERNAL_RE.match(code) \
                    and not self._disabled(raw, "TL004"):
                self.findings.report(
                    relpath, i, "TL004",
                    "DASH_MPC_INTERNAL defined in source; the passkey "
                    "gate may only be opened by src/CMakeLists.txt")

            # The macro's own #define (and #undef) is not a use.
            if DECLASSIFY_RE.search(code) \
                    and not re.match(r"\s*#", code):
                declassifies.append(i)

            in_function_before = current_function(i) is not None

            # --- heuristic function tracking (regex engine only) -----
            if function_ranges is None:
                opens = code.count("{")
                closes = code.count("}")
                if opens:
                    head = code.split("{", 1)[0]
                    sig_text = (pending_sig + " " + head).strip()
                    m = FUNC_SIG_RE.search(sig_text)
                    name = m.group(1) if m else None
                    if name is not None and (
                            name.rsplit("::", 1)[-1] in NOT_FUNC_KEYWORDS
                            or name in NOT_FUNC_KEYWORDS):
                        name = None
                    if not func_stack and name is not None:
                        func_stack.append((name, brace_depth))
                        local_taints = set()
                        # Parameters declared across the signature lines.
                        for pname in secret_decl_names(sig_text):
                            local_taints.add(pname)
                brace_depth += opens - closes
                while func_stack and brace_depth <= func_stack[-1][1]:
                    func_stack.pop()
                    local_taints = set()
                if stripped.endswith((";", "{", "}")) or not stripped:
                    pending_sig = ""
                else:
                    pending_sig = (pending_sig + " " + stripped)[-400:]

            in_function = current_function(i) is not None
            taints = local_taints | file_taints
            if extra_seeds:
                taints |= {n for (ln, n) in extra_seeds if ln <= i}

            # --- seeding: Secret</Masked< declarations ---------------
            for name in secret_decl_names(code):
                if in_function or in_function_before:
                    local_taints.add(name)
                else:
                    file_taints.add(name)

            # --- propagation / laundering ----------------------------
            m = ASSIGN_RE.match(stripped)
            if m and not stripped.startswith(("if", "for", "while")):
                lhs, rhs = m.group(1), m.group(2)
                if self.launders(rhs):
                    local_taints.discard(lhs)
                elif (mentions_any(rhs, taints)
                        or calls_any(rhs, self.sources)):
                    local_taints.add(lhs)
            rf = RANGEFOR_RE.search(code)
            if rf:
                var, seq = rf.group(1), rf.group(2)
                if mentions_any(seq, taints | local_taints):
                    local_taints.add(var)

            # --- sinks (TL001) ---------------------------------------
            taints = local_taints | file_taints
            if extra_seeds:
                taints |= {n for (ln, n) in extra_seeds if ln <= i}
            if taints and not self._disabled(raw, "TL001"):
                for sink_re, sink_name in SINKS:
                    sm = sink_re.search(code)
                    if not sm:
                        continue
                    after = code[sm.start():]
                    hit = mentions_any(after, taints)
                    if (hit and not self.launders(code)
                            and not enclosing_allowlisted(i)):
                        self.findings.report(
                            relpath, i, "TL001",
                            "secret-tainted '%s' reaches sink %s without "
                            "an allowlisted reveal point" % (hit, sink_name))
                        break

        # --- TL002: declassifying file must be enumerated ------------
        if declassifies and relpath.startswith("src/") \
                and relpath not in self.allow.declassify_files:
            for lineno in declassifies:
                if not self._disabled(lines[lineno - 1], "TL002"):
                    self.findings.report(
                        relpath, lineno, "TL002",
                        "DASH_DECLASSIFY in a file with no declassify@%s "
                        "allowlist entry" % relpath)

    @staticmethod
    def _disabled(raw_line, rule):
        m = DISABLE_RE.search(raw_line)
        return m is not None and m.group(1) == rule


# --------------------------------------------------------------------
# clang engine: exact extents and seeds from libclang, same flow rules.
# The bootstrap (binding discovery, compile DB, TU parsing) lives in
# dash_clang_common.py, shared with dash_lint.py and dash_proto.py.
# --------------------------------------------------------------------

def clang_file_facts(cindex, path, compile_args):
    """(function_ranges, seeds, extra_sources) for one TU via libclang."""
    tu = parse_tu(cindex, path, compile_args)
    ranges = []
    seeds = []
    extra_sources = set()

    def walk(cursor):
        for child in cursor.get_children():
            kind = child.kind.name
            if kind in ("FUNCTION_DECL", "CXX_METHOD", "CONSTRUCTOR",
                        "DESTRUCTOR", "FUNCTION_TEMPLATE") \
                    and child.is_definition() and in_main_file(child, path):
                ranges.append((child.spelling,
                               child.extent.start.line,
                               child.extent.end.line))
                if re.search(r"\b(Secret|Masked)\s*<",
                             child.result_type.spelling or ""):
                    extra_sources.add(child.spelling)
            if kind in ("VAR_DECL", "PARM_DECL", "FIELD_DECL") \
                    and in_main_file(child, path):
                if re.search(r"\b(Secret|Masked)\s*<",
                             child.type.spelling or ""):
                    seeds.append((child.location.line, child.spelling))
            walk(child)

    walk(tu.cursor)
    return ranges, seeds, extra_sources


# --------------------------------------------------------------------
# TL003: allowlist staleness.
# --------------------------------------------------------------------

def tree_function_names():
    names = set()
    for dirpath, _, files in os.walk(os.path.join(REPO_ROOT, "src")):
        for f in sorted(files):
            if not f.endswith((".h", ".cc")):
                continue
            for raw in read_lines(os.path.join(dirpath, f)):
                code, _ = strip_noise(raw, False)
                for m in re.finditer(r"\b([A-Za-z_]\w*)\s*\(", code):
                    names.add(m.group(1))
    return names


def validate_allowlist(allowlist, findings, protocol_text=None,
                       known_functions=None):
    if protocol_text is None:
        protocol_text = "\n".join(read_lines(PROTOCOL_PATH))
    if known_functions is None:
        known_functions = tree_function_names()
    relpath = rel(allowlist.path)
    for (lineno, name, key, nfields) in allowlist.entries:
        if nfields < 3 or not name or not key:
            findings.report(relpath, lineno, "TL003",
                            "malformed entry; want "
                            "<reveal-point> | <round-key> | <justification>")
            continue
        if name.startswith("declassify@"):
            target = name[len("declassify@"):]
            full = os.path.join(REPO_ROOT, target)
            if not os.path.isfile(full):
                findings.report(relpath, lineno, "TL003",
                                "declassify@ file %s does not exist" % target)
            elif not any(DECLASSIFY_RE.search(l)
                         for l in read_lines(full)):
                findings.report(relpath, lineno, "TL003",
                                "%s no longer contains DASH_DECLASSIFY"
                                % target)
        else:
            tail = name.rsplit("::", 1)[-1]
            if tail not in known_functions:
                findings.report(relpath, lineno, "TL003",
                                "reveal point %s not found in src/" % name)
        if key not in protocol_text:
            findings.report(relpath, lineno, "TL003",
                            "round key '%s' not defined in PROTOCOL.md's "
                            "reveal-point table" % key)


# --------------------------------------------------------------------
# Drivers.
# --------------------------------------------------------------------

def iter_tree_files():
    for dirpath, _, files in os.walk(os.path.join(REPO_ROOT, "src")):
        for f in sorted(files):
            if f.endswith((".cc", ".cpp", ".h", ".hpp")):
                yield os.path.join(dirpath, f)


def pick_engine(mode):
    return common_pick_engine(mode, "dash_taint")


def analyze_paths(paths, engine, cindex, allowlist, sources, findings,
                  compile_db=None):
    for path in paths:
        ranges = seeds = None
        if engine == "clang":
            args = args_for_path(path, compile_db)
            try:
                ranges, seeds, extra = clang_file_facts(cindex, path, args)
                sources = sources | extra
            except Exception as e:  # degrade per-TU, keep scanning
                print("dash_taint: libclang failed on %s (%s); "
                      "regex fallback for this file" % (rel(path), e),
                      file=sys.stderr)
                ranges = seeds = None
        TaintEngine(allowlist, sources, findings).analyze_file(
            path, rel(path), function_ranges=ranges, extra_seeds=seeds)


def run_scan(files, mode, build_dir):
    cindex, engine = pick_engine(mode)
    allowlist = Allowlist.load(ALLOWLIST_PATH)
    findings = Findings()
    validate_allowlist(allowlist, findings)
    sources = scrape_secret_sources()
    compile_db = load_compile_db(build_dir) if engine == "clang" else None
    paths = [os.path.abspath(p) for p in files] if files \
        else sorted(iter_tree_files())
    analyze_paths(paths, engine, cindex, allowlist, sources, findings,
                  compile_db)
    for line in findings.lines():
        print(line)
    print("dash_taint[%s]: %d files, %d findings"
          % (engine, len(paths), len(findings.items)), file=sys.stderr)
    return 1 if findings.items else 0


def expected_findings(path, marker):
    out = set()
    for raw in read_lines(path):
        m = re.search(r"%s:\s*(TL\d{3})@(\d+)" % marker, raw)
        if m:
            out.add((m.group(1), int(m.group(2))))
    return out


def run_self_test(mode):
    cindex, engine = pick_engine(mode)
    allowlist = Allowlist.load(ALLOWLIST_PATH)
    sources = scrape_secret_sources()
    fixtures = sorted(
        os.path.join(FIXTURE_DIR, f) for f in os.listdir(FIXTURE_DIR)
        if f.endswith((".cc", ".h")))
    failures = []

    for path in fixtures:
        findings = Findings()
        analyze_paths([path], engine, cindex, allowlist, sources, findings)
        got = {(rule, ln) for (_, ln, rule, _) in findings.items}
        want = expected_findings(path, "EXPECT-TAINT")
        if got != want:
            failures.append("%s: expected %s, got %s"
                            % (rel(path), sorted(want), sorted(got)))

    # The stale-allowlist fixture must trip TL003; the real allowlist
    # must validate clean against the real tree and PROTOCOL.md.
    stale = os.path.join(FIXTURE_DIR, "stale_allowlist.txt")
    findings = Findings()
    validate_allowlist(Allowlist.load(stale), findings)
    got = {(rule, ln) for (_, ln, rule, _) in findings.items}
    want = expected_findings(stale, "EXPECT-TAINT")
    if got != want:
        failures.append("%s: expected %s, got %s"
                        % (rel(stale), sorted(want), sorted(got)))
    findings = Findings()
    validate_allowlist(allowlist, findings)
    if findings.items:
        failures.append("real allowlist is stale: %s" % findings.lines())

    for f in failures:
        print("self-test FAIL:", f)
    total = len(fixtures) + 2
    print("dash_taint[%s] --self-test: %d/%d checks pass"
          % (engine, total - len(failures), total), file=sys.stderr)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*",
                        help="files to scan (default: all of src/)")
    parser.add_argument("--mode", choices=("auto", "clang", "regex"),
                        default="auto")
    parser.add_argument("--build-dir", default=os.path.join(REPO_ROOT,
                                                            "build"))
    parser.add_argument("--self-test", action="store_true",
                        help="verify against tools/taint_fixtures")
    args = parser.parse_args()
    if args.self_test:
        return run_self_test(args.mode)
    return run_scan(args.files, args.mode, args.build_dir)


if __name__ == "__main__":
    sys.exit(main())
