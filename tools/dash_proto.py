#!/usr/bin/env python3
"""dash_proto: static protocol-conformance analysis (DESIGN.md §16).

The paper's security and correctness argument rests on a fixed round
choreography (probe -> Phase 0 -> Phase 1 QR -> Phase 0b key agreement
-> Phase 2 secure sums -> commit). tools/protocol_model.yaml is the
machine-readable single source of truth for that choreography; this
tool extracts every Send/Receive/Broadcast call site under src/ (via
the DASH_ROUND annotations in net/round_annotations.h) and checks the
reconstructed wire round model against the YAML and PROTOCOL.md.

Rules (stable IDs, mirrored by dash_lint's DLxxx / dash_taint's TLxxx):

  PC000 extraction integrity
      A wire call in a runner file without a DASH_ROUND annotation, an
      annotation with no wire call, an annotation whose tag disagrees
      with the call's MessageTag literal, an unknown round key, or a
      wire call in a src/ file that is neither a modeled runner nor
      declared transport infrastructure.

  PC001 static deadlock-freedom of the happy path
      The per-round, per-file send/receive site census must match
      the model exactly (deleting any single call site fails, as does
      adding an unmodeled one), and within every runner group that
      touches a round, the round must have both a send site and a
      receive site (a Receive with no matching Send on the peer role is
      a deadlock by construction). Rounds whose receives happen inside
      the transport layer must say so (`recv_in_transport`).

  PC002 no phantom or undocumented rounds
      Every MessageTag in net/message.h is either a modeled round tag
      or a declared non-round tag, and vice versa; PROTOCOL.md's
      generated round table must be byte-identical to what
      --emit-table renders from the model (so the docs cannot drift).

  PC003 round ordering
      Within any one function, annotated sites must appear in
      non-decreasing model `order` — the phase ordering each runner
      actually executes matches the model.

  PC004 failure paths reach the abort broadcast
      The abort wrapper function named by the model must exist and own
      the kAbort send site, every declared entry point must route
      through it, and no function containing round sites may hard-exit
      (exit/abort/std::terminate) past the abort machinery.

  PC005 reveal keys map to modeled rounds
      Every round key used by tools/secrecy_allowlist.txt maps to at
      least one modeled round's reveal_keys, and every modeled reveal
      key is one the allowlist actually uses (closing the loop with
      dash_taint TL003).

Engines:

  clang   function extents come from libclang over compile_commands
          (exact names and boundaries for PC003/PC004); annotation and
          call extraction are text-based in both engines because round
          keys exist only in macro arguments.
  regex   heuristic function tracking (brace depth + signature match);
          sites whose enclosing function cannot be named are skipped by
          the ordering check rather than misattributed.
  auto    clang when the bindings import and load, else regex (default).

Usage:
  tools/dash_proto.py                      # scan src/, exit 0/1
  tools/dash_proto.py --self-test          # run against tools/proto_fixtures
  tools/dash_proto.py --emit-table         # print the generated round table
  tools/dash_proto.py --update-protocol    # rewrite PROTOCOL.md's table block
  tools/dash_proto.py --check-table        # only verify PROTOCOL.md freshness
  tools/dash_proto.py --dump-sites         # print extracted wire sites
  tools/dash_proto.py --mode regex|clang   # force an engine
"""

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from dash_clang_common import (  # noqa: E402
    REPO_ROOT, args_for_path, function_extents, load_compile_db, parse_tu,
    pick_engine, read_lines, rel, strip_noise)

MODEL_PATH = os.path.join(REPO_ROOT, "tools", "protocol_model.yaml")
MESSAGE_HEADER = os.path.join(REPO_ROOT, "src", "net", "message.h")
PROTOCOL_PATH = os.path.join(REPO_ROOT, "PROTOCOL.md")
ALLOWLIST_PATH = os.path.join(REPO_ROOT, "tools", "secrecy_allowlist.txt")
FIXTURE_DIR = os.path.join(REPO_ROOT, "tools", "proto_fixtures")

TABLE_BEGIN = "<!-- BEGIN GENERATED ROUND TABLE -->"
TABLE_END = "<!-- END GENERATED ROUND TABLE -->"

FIXTURE_AS_RE = re.compile(r"dash-proto-fixture-as:\s*(\S+)")
ANNOT_RE = re.compile(
    r"\bDASH_ROUND\s*\(\s*(?P<key>[A-Za-z_]\w*)\s*,"
    r"\s*(?P<tag>k\w+)\s*\)")
CALL_RE = re.compile(r"(?:\.|->)\s*(?P<dir>Send|Receive|Broadcast)\s*\(")
TAG_RE = re.compile(r"\bMessageTag::(k\w+)\b")
HARD_EXIT_RE = re.compile(
    r"(?<![\w:.>])(?:exit|_Exit|quick_exit|abort)\s*\(|\bstd::terminate\b")
# Annotations bind to the first wire call within this many lines below.
BIND_WINDOW = 5

# Heuristic function-signature matching for the regex engine — same
# shape as dash_taint's tracker.
NOT_FUNC_KEYWORDS = {"if", "for", "while", "switch", "catch", "return",
                     "sizeof", "static_assert", "alignas", "decltype",
                     "defined"}
FUNC_SIG_RE = re.compile(
    r"([A-Za-z_]\w*(?:::~?[A-Za-z_]\w*)*)\s*\(([^;{}]*)\)\s*"
    r"(?:const\s*|noexcept\s*|override\s*|final\s*)*(?:->\s*[^{]+?)?$")


class ModelError(Exception):
    pass


# --------------------------------------------------------------------
# Restricted YAML reader. Supports exactly the subset the model uses:
# nested maps, lists of scalars, lists of maps, inline [a, b] lists,
# full-line comments, int/bool/str scalars. 2-space indentation.
# --------------------------------------------------------------------

def _scalar(text):
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        return [_scalar(x) for x in inner.split(",")] if inner else []
    if (text.startswith('"') and text.endswith('"')) or \
            (text.startswith("'") and text.endswith("'")):
        return text[1:-1]
    if re.fullmatch(r"-?\d+", text):
        return int(text)
    if text in ("true", "false"):
        return text == "true"
    return text


def parse_mini_yaml(lines):
    tokens = []
    for lineno, raw in enumerate(lines, start=1):
        if "\t" in raw:
            raise ModelError("line %d: tabs are not allowed" % lineno)
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        indent = len(raw) - len(raw.lstrip(" "))
        tokens.append([indent, stripped, lineno])

    def parse_block(pos, indent):
        if pos >= len(tokens):
            return None, pos
        if tokens[pos][1] == "-" or tokens[pos][1].startswith("- "):
            return parse_list(pos, indent)
        return parse_map(pos, indent)

    def parse_map(pos, indent):
        out = {}
        while pos < len(tokens):
            ind, text, lineno = tokens[pos]
            if ind < indent:
                break
            if ind > indent:
                raise ModelError("line %d: unexpected indent" % lineno)
            if text == "-" or text.startswith("- "):
                break
            m = re.match(r"([\w.\-]+):\s*(.*)$", text)
            if not m:
                raise ModelError("line %d: expected 'key: value'" % lineno)
            key, rest = m.group(1), m.group(2)
            if key in out:
                raise ModelError("line %d: duplicate key %r" % (lineno, key))
            pos += 1
            if rest:
                out[key] = _scalar(rest)
            elif pos < len(tokens) and tokens[pos][0] > indent:
                out[key], pos = parse_block(pos, tokens[pos][0])
            else:
                out[key] = None
        return out, pos

    def parse_list(pos, indent):
        out = []
        while pos < len(tokens):
            ind, text, lineno = tokens[pos]
            if ind != indent or not (text == "-" or text.startswith("- ")):
                break
            rest = text[1:].strip()
            if not rest:
                pos += 1
                if pos < len(tokens) and tokens[pos][0] > indent:
                    val, pos = parse_block(pos, tokens[pos][0])
                else:
                    val = None
                out.append(val)
            elif re.match(r"[\w.\-]+:(\s|$)", rest):
                # `- key: value` opens a map item whose keys sit at the
                # column just past the dash.
                tokens[pos] = [ind + 2, rest, lineno]
                val, pos = parse_map(pos, ind + 2)
                out.append(val)
            else:
                out.append(_scalar(rest))
                pos += 1
        return out, pos

    value, pos = parse_block(0, tokens[0][0] if tokens else 0)
    if pos != len(tokens):
        raise ModelError("line %d: trailing content" % tokens[pos][2])
    return value


# --------------------------------------------------------------------
# Model loading and structural validation.
# --------------------------------------------------------------------

class Model:
    def __init__(self, data, path):
        self.path = path
        self.data = data
        self.phases = data.get("phases") or []
        self.runners = data.get("runners") or []
        self.infrastructure = set(data.get("infrastructure_files") or [])
        self.non_round_tags = data.get("non_round_tags") or []
        self.abort = data.get("abort") or {}
        self.rounds = data.get("rounds") or []
        self.by_key = {}
        self.runner_files = {}   # runner key -> [files]
        self.file_runner = {}    # file -> runner key
        self._validate()

    def _validate(self):
        phase_keys = []
        for ph in self.phases:
            if not isinstance(ph, dict) or "key" not in ph:
                raise ModelError("every phase needs a key")
            phase_keys.append(ph["key"])
        if len(set(phase_keys)) != len(phase_keys):
            raise ModelError("duplicate phase keys")
        for rn in self.runners:
            key = rn.get("key")
            files = rn.get("files") or []
            if not key or not files:
                raise ModelError("every runner needs key + files")
            self.runner_files[key] = files
            for f in files:
                if f in self.file_runner:
                    raise ModelError("file %s in two runners" % f)
                if f in self.infrastructure:
                    raise ModelError(
                        "file %s is both runner and infrastructure" % f)
                self.file_runner[f] = key
        for rd in self.rounds:
            key = rd.get("key")
            if not key:
                raise ModelError("every round needs a key")
            if key in self.by_key:
                raise ModelError("duplicate round key %s" % key)
            if rd.get("phase") not in phase_keys:
                raise ModelError("round %s: unknown phase %r"
                                 % (key, rd.get("phase")))
            if not isinstance(rd.get("order"), int):
                raise ModelError("round %s: integer `order` required" % key)
            tag = rd.get("tag") or ""
            if not tag.startswith("k"):
                raise ModelError("round %s: tag must be a kXxx enumerator"
                                 % key)
            for site in rd.get("sites") or []:
                f = site.get("file")
                if f not in self.file_runner:
                    raise ModelError(
                        "round %s: site file %s is not a runner file"
                        % (key, f))
            self.by_key[key] = rd
        for nrt in self.non_round_tags:
            if not nrt.get("tag") or not nrt.get("reason"):
                raise ModelError("non_round_tags entries need tag + reason")
        if self.abort:
            if self.abort.get("round") not in self.by_key:
                raise ModelError("abort.round %r is not a modeled round"
                                 % self.abort.get("round"))

    def round_tags(self):
        return {rd["tag"] for rd in self.rounds}

    def declared_counts(self):
        """{(round_key, file): {send, recv}}."""
        out = {}
        for rd in self.rounds:
            for site in rd.get("sites") or []:
                out[(rd["key"], site["file"])] = {
                    "send": int(site.get("send") or 0),
                    "recv": int(site.get("recv") or 0),
                }
        return out


def load_model(path):
    return Model(parse_mini_yaml(read_lines(path)), path)


# --------------------------------------------------------------------
# Extraction: annotations + wire calls + function extents per file.
# --------------------------------------------------------------------

class Site:
    """One annotated wire call."""

    def __init__(self, relpath, line, key, tag, direction, func, in_loop):
        self.relpath = relpath
        self.line = line
        self.key = key
        self.tag = tag
        self.direction = direction  # send | recv
        self.func = func
        self.in_loop = in_loop

    def __repr__(self):
        return "%s:%d %s %s %s fn=%s%s" % (
            self.relpath, self.line, self.key, self.tag, self.direction,
            self.func, " loop" if self.in_loop else "")


def regex_function_extents(stripped_lines):
    """Heuristic (name, start, end) extents — dash_taint's tracker shape."""
    extents = []
    brace_depth = 0
    func_stack = []  # (name, entry_depth, start_line)
    pending_sig = ""
    for i, code in enumerate(stripped_lines, start=1):
        stripped = code.strip()
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
                func_stack.append((name, brace_depth, i))
        brace_depth += opens - closes
        while func_stack and brace_depth <= func_stack[-1][1]:
            name, _, start = func_stack.pop()
            extents.append((name, start, i))
        if stripped.endswith((";", "{", "}")) or not stripped:
            pending_sig = ""
        else:
            pending_sig = (pending_sig + " " + stripped)[-400:]
    while func_stack:
        name, _, start = func_stack.pop()
        extents.append((name, start, len(stripped_lines)))
    return extents


class FileFacts:
    """Everything extracted from one file."""

    def __init__(self, path, relpath, extents):
        self.path = path
        self.relpath = relpath
        self.extents = extents        # (name, start, end)
        self.sites = []               # bound Site objects
        self.unbound_calls = []       # (line, direction, tag_or_None)
        self.dangling_annots = []     # (line, key)
        self.tag_mismatches = []      # (line, key, annot_tag, call_tag)
        self.stripped = []

    def function_at(self, line):
        best = None
        for (name, start, end) in self.extents:
            if start <= line <= end and (
                    best is None or start >= best[1]):
                best = (name, start)
        return best[0] if best else None


def extract_file(path, relpath_override=None, clang_extents=None):
    lines = read_lines(path)
    relpath = relpath_override or rel(path)
    for line in lines[:5]:
        m = FIXTURE_AS_RE.search(line)
        if m:
            relpath = m.group(1)
            break

    stripped = []
    in_block = False
    for raw in lines:
        code, in_block = strip_noise(raw, in_block)
        stripped.append(code)

    extents = clang_extents if clang_extents is not None \
        else regex_function_extents(stripped)
    facts = FileFacts(path, relpath, extents)
    facts.stripped = stripped

    annots = []  # [line, key, tag, bound]
    calls = []   # [line, direction, tag]
    for i, code in enumerate(stripped, start=1):
        for m in ANNOT_RE.finditer(code):
            annots.append([i, m.group("key"), m.group("tag"), False])
        for m in CALL_RE.finditer(code):
            # The MessageTag literal may sit on a continuation line;
            # search forward without crossing into the next wire call.
            window = code[m.end():]
            tag = None
            tm = TAG_RE.search(window)
            if tm:
                tag = tm.group(1)
            else:
                for j in range(i, min(i + 3, len(stripped))):
                    nxt = stripped[j]
                    if CALL_RE.search(nxt):
                        nxt = nxt[:CALL_RE.search(nxt).start()]
                    tm = TAG_RE.search(nxt)
                    if tm:
                        tag = tm.group(1)
                        break
                    if ";" in stripped[j]:
                        break
            calls.append([i, m.group("dir"), tag])

    def in_loop_at(line, func):
        ext = None
        for (name, start, end) in extents:
            if name == func and start <= line <= end:
                ext = (start, end)
                break
        if ext is None:
            return False
        for j in range(line - 1, max(ext[0], line - 12) - 1, -1):
            if re.search(r"\b(for|while)\s*\(", stripped[j - 1]):
                return True
        return False

    for call in calls:
        cline, direction, tag = call
        best = None
        for a in annots:
            if a[3]:
                continue
            if a[0] < cline <= a[0] + BIND_WINDOW:
                if best is None or a[0] > best[0]:
                    best = a
        if best is None:
            facts.unbound_calls.append((cline, direction, tag))
            continue
        best[3] = True
        aline, key, atag, _ = best
        if tag is not None and tag != atag:
            facts.tag_mismatches.append((cline, key, atag, tag))
        func = facts.function_at(cline)
        facts.sites.append(Site(
            facts.relpath, cline, key, tag or atag,
            "recv" if direction == "Receive" else "send",
            func, in_loop_at(cline, func)))
    for a in annots:
        if not a[3]:
            facts.dangling_annots.append((a[0], a[1]))
    return facts


# --------------------------------------------------------------------
# Findings and checks.
# --------------------------------------------------------------------

class Findings:
    def __init__(self):
        self.items = []

    def report(self, relpath, lineno, rule, message):
        self.items.append((relpath, lineno, rule, message))

    def lines(self):
        return ["%s:%d: %s: %s" % it for it in self.items]

    def rules(self):
        return {rule for (_, _, rule, _) in self.items}


def parse_message_tags(header_path):
    """MessageTag enumerators from net/message.h (enum block only)."""
    tags = {}
    in_enum = False
    for i, raw in enumerate(read_lines(header_path), start=1):
        code, _ = strip_noise(raw, False)
        if re.search(r"\benum\s+class\s+MessageTag\b", code):
            in_enum = True
            continue
        if in_enum:
            if re.search(r"};", code):
                break
            m = re.search(r"\b(k\w+)\s*=\s*(\d+)", code)
            if m:
                tags[m.group(1)] = i
    return tags


def parse_allowlist_round_keys(path):
    keys = {}
    for i, raw in enumerate(read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) >= 2 and parts[1]:
            keys.setdefault(parts[1], i)
    return keys


def check_extraction(model, facts_by_file, findings):
    """PC000: annotations and calls must agree and be complete."""
    for facts in facts_by_file.values():
        runner = model.file_runner.get(facts.relpath)
        infra = facts.relpath in model.infrastructure
        if runner is None and not infra:
            for (line, direction, tag) in facts.unbound_calls:
                findings.report(
                    facts.relpath, line, "PC000",
                    "wire call %s(%s) in a file that is neither a modeled "
                    "runner nor declared transport infrastructure; add the "
                    "file to tools/protocol_model.yaml" %
                    (direction, tag or "?"))
            for s in facts.sites:
                findings.report(
                    facts.relpath, s.line, "PC000",
                    "DASH_ROUND in a file that is not a modeled runner")
            continue
        if infra:
            continue
        for (line, direction, tag) in facts.unbound_calls:
            findings.report(
                facts.relpath, line, "PC000",
                "unannotated wire call %s(%s); every Send/Receive/Broadcast "
                "in a runner file needs a DASH_ROUND annotation" %
                (direction, tag or "?"))
        for (line, key) in facts.dangling_annots:
            findings.report(
                facts.relpath, line, "PC000",
                "DASH_ROUND(%s, ...) with no wire call within %d lines"
                % (key, BIND_WINDOW))
        for (line, key, atag, ctag) in facts.tag_mismatches:
            findings.report(
                facts.relpath, line, "PC000",
                "annotation says %s but the call sends %s" % (atag, ctag))
        for s in facts.sites:
            rd = model.by_key.get(s.key)
            if rd is None:
                findings.report(
                    s.relpath, s.line, "PC000",
                    "unknown round key '%s' (not in %s)"
                    % (s.key, rel(model.path)))
            elif rd.get("tag") != s.tag:
                findings.report(
                    s.relpath, s.line, "PC000",
                    "round %s is modeled with tag %s but this site uses %s"
                    % (s.key, rd.get("tag"), s.tag))


def check_pc001(model, facts_by_file, findings):
    """Site census + per-runner send/recv pairing."""
    declared = model.declared_counts()
    extracted = {}
    for facts in facts_by_file.values():
        for s in facts.sites:
            if s.key not in model.by_key:
                continue
            slot = extracted.setdefault((s.key, s.relpath),
                                        {"send": 0, "recv": 0})
            slot[s.direction] += 1

    for (key, path), want in sorted(declared.items()):
        got = extracted.get((key, path), {"send": 0, "recv": 0})
        if got != want:
            findings.report(
                path, 1, "PC001",
                "round %s: site census mismatch in %s — model declares "
                "send=%d recv=%d, source has send=%d recv=%d (update the "
                "annotations AND the model together)"
                % (key, path, want["send"], want["recv"],
                   got["send"], got["recv"]))
    for (key, path), got in sorted(extracted.items()):
        if (key, path) not in declared:
            findings.report(
                path, 1, "PC001",
                "round %s has %d annotated site(s) in %s but the model "
                "declares none for that file"
                % (key, sum(got.values()), path))

    # Model-internal deadlock check: within each runner group that
    # touches a round, both directions must exist.
    for rd in model.rounds:
        key = rd["key"]
        recv_in_transport = bool(rd.get("recv_in_transport"))
        per_runner = {}
        for site in rd.get("sites") or []:
            runner = model.file_runner.get(site["file"])
            slot = per_runner.setdefault(runner, {"send": 0, "recv": 0})
            slot["send"] += int(site.get("send") or 0)
            slot["recv"] += int(site.get("recv") or 0)
        for runner, slot in sorted(per_runner.items()):
            if slot["send"] == 0:
                findings.report(
                    rel(model.path), 1, "PC001",
                    "round %s: runner '%s' receives tag %s but has no send "
                    "site — every peer would block in Receive"
                    % (key, runner, rd.get("tag")))
            if slot["recv"] == 0 and not recv_in_transport:
                findings.report(
                    rel(model.path), 1, "PC001",
                    "round %s: runner '%s' sends tag %s but has no receive "
                    "site — frames would arrive under an unexpected tag "
                    "(declare recv_in_transport if the transport latches "
                    "this tag)" % (key, runner, rd.get("tag")))


def check_pc002(model, message_header, protocol_path, findings):
    enum_tags = parse_message_tags(message_header)
    model_round_tags = model.round_tags()
    non_round = {nrt["tag"]: nrt for nrt in model.non_round_tags}
    header_rel = rel(message_header)

    for tag, lineno in sorted(enum_tags.items()):
        if tag not in model_round_tags and tag not in non_round:
            findings.report(
                header_rel, lineno, "PC002",
                "MessageTag %s is neither a modeled round tag nor a "
                "declared non-round tag — phantom round" % tag)
    for tag in sorted(model_round_tags | set(non_round)):
        if tag not in enum_tags:
            findings.report(
                rel(model.path), 1, "PC002",
                "model references tag %s which net/message.h does not "
                "define" % tag)
    for tag in sorted(set(non_round) & model_round_tags):
        findings.report(
            rel(model.path), 1, "PC002",
            "tag %s is declared both as a round tag and a non-round tag"
            % tag)

    # The committed PROTOCOL.md table must be byte-identical to what the
    # model renders, and its rows must cover exactly the round tags.
    protocol_lines = read_lines(protocol_path)
    block = extract_table_block(protocol_lines)
    if block is None:
        findings.report(
            rel(protocol_path), 1, "PC002",
            "no generated round table (markers %r/%r) — run "
            "tools/dash_proto.py --update-protocol"
            % (TABLE_BEGIN, TABLE_END))
        return
    generated = render_table(model)
    if block != generated:
        findings.report(
            rel(protocol_path), 1, "PC002",
            "generated round table is stale — run "
            "tools/dash_proto.py --update-protocol")
    table_tags = set()
    for line in block:
        m = re.match(r"\|\s*\d+\s*\|(?:[^|]*\|){2}\s*`(k\w+)`", line)
        if m:
            table_tags.add(m.group(1))
    for tag in sorted(model_round_tags - table_tags):
        findings.report(
            rel(protocol_path), 1, "PC002",
            "round tag %s missing from PROTOCOL.md's round table" % tag)
    for tag in sorted(table_tags - model_round_tags):
        findings.report(
            rel(protocol_path), 1, "PC002",
            "PROTOCOL.md's round table lists %s but no modeled round "
            "uses it" % tag)


def check_pc003(model, facts_by_file, findings):
    for facts in facts_by_file.values():
        per_func = {}
        for s in facts.sites:
            if s.func is None or s.key not in model.by_key:
                continue
            rd = model.by_key[s.key]
            if rd.get("phase") == "abort":
                continue
            per_func.setdefault(s.func, []).append(s)
        for func, sites in sorted(per_func.items()):
            sites.sort(key=lambda s: s.line)
            prev = None
            for s in sites:
                order = model.by_key[s.key]["order"]
                if prev is not None and order < prev[0]:
                    findings.report(
                        s.relpath, s.line, "PC003",
                        "round %s (order %d) appears after %s (order %d) "
                        "in %s — execution order contradicts the model"
                        % (s.key, order, prev[1], prev[0], func))
                prev = (order, s.key)


def check_pc004(model, facts_by_file, findings):
    if not model.abort:
        return
    abort_round = model.abort.get("round")
    wrapper = model.abort.get("wrapper")
    wrapper_file = model.abort.get("wrapper_file")
    entry_points = model.abort.get("entry_points") or []

    wrapper_facts = None
    for facts in facts_by_file.values():
        if facts.relpath == wrapper_file:
            wrapper_facts = facts
            break
    if wrapper_facts is None:
        findings.report(
            rel(model.path), 1, "PC004",
            "abort wrapper file %s was not scanned" % wrapper_file)
        return

    wrapper_ext = [e for e in wrapper_facts.extents
                   if e[0].rsplit("::", 1)[-1] == wrapper]
    if not wrapper_ext:
        findings.report(
            wrapper_file, 1, "PC004",
            "abort wrapper %s not found in %s" % (wrapper, wrapper_file))
        return
    abort_sites = [s for s in wrapper_facts.sites if s.key == abort_round]
    if not any(s.func and s.func.rsplit("::", 1)[-1] == wrapper
               and s.direction == "send" for s in abort_sites):
        findings.report(
            wrapper_file, wrapper_ext[0][1], "PC004",
            "abort wrapper %s does not contain the %s send site — failure "
            "paths cannot notify peers" % (wrapper, abort_round))

    # Every public entry point must route through the wrapper.
    for entry in entry_points:
        exts = [e for e in wrapper_facts.extents
                if e[0].rsplit("::", 1)[-1] == entry]
        if not exts:
            findings.report(
                wrapper_file, 1, "PC004",
                "declared entry point %s not found in %s"
                % (entry, wrapper_file))
            continue
        for (name, start, end) in exts:  # every overload must route through
            body = "\n".join(wrapper_facts.stripped[start - 1:end])
            if not re.search(r"\b%s\s*\(" % re.escape(wrapper), body):
                findings.report(
                    wrapper_file, start, "PC004",
                    "entry point %s does not call the abort wrapper %s — "
                    "its failures would strand peers in Receive"
                    % (entry, wrapper))

    # No hard exits inside round-bearing functions: a process that dies
    # without returning Status skips the abort broadcast.
    for facts in facts_by_file.values():
        if facts.relpath not in model.file_runner:
            continue
        round_funcs = {s.func for s in facts.sites if s.func}
        for (name, start, end) in facts.extents:
            if name not in round_funcs:
                continue
            for i in range(start, min(end, len(facts.stripped)) + 1):
                if HARD_EXIT_RE.search(facts.stripped[i - 1]):
                    findings.report(
                        facts.relpath, i, "PC004",
                        "hard exit inside round-bearing function %s bypasses "
                        "the abort broadcast; return a Status instead" % name)


def check_pc005(model, allowlist_path, findings):
    allow_keys = parse_allowlist_round_keys(allowlist_path)
    modeled = {}
    for rd in model.rounds:
        for k in rd.get("reveal_keys") or []:
            modeled.setdefault(k, []).append(rd["key"])
    for key, lineno in sorted(allow_keys.items()):
        if key not in modeled:
            findings.report(
                rel(allowlist_path), lineno, "PC005",
                "allowlist round key '%s' does not map to any modeled "
                "round's reveal_keys" % key)
    for key, rounds in sorted(modeled.items()):
        if key not in allow_keys:
            findings.report(
                rel(model.path), 1, "PC005",
                "rounds %s declare reveal key '%s' which "
                "tools/secrecy_allowlist.txt never uses"
                % (",".join(rounds), key))


# --------------------------------------------------------------------
# PROTOCOL.md round table generation.
# --------------------------------------------------------------------

def render_table(model):
    phase_titles = {ph["key"]: ph.get("title", ph["key"])
                    for ph in model.phases}
    lines = [
        "<!-- Generated by tools/dash_proto.py from"
        " tools/protocol_model.yaml. -->",
        "<!-- Do not edit by hand: run `python3 tools/dash_proto.py"
        " --update-protocol`; -->",
        "<!-- CI fails if this block drifts from the model"
        " (check PC002). -->",
        "",
        "| Order | Phase | Round | Tag | Pattern | Arity | Mode /"
        " condition | Reveal key(s) |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for rd in sorted(model.rounds, key=lambda r: (r["order"], r["key"])):
        reveal = ", ".join("`%s`" % k for k in rd.get("reveal_keys") or [])
        lines.append(
            "| %d | %s | `%s` | `%s` | %s | %s | %s | %s |" % (
                rd["order"], phase_titles.get(rd["phase"], rd["phase"]),
                rd["key"], rd["tag"], rd.get("pattern", ""),
                rd.get("arity", ""), rd.get("optional", "always"),
                reveal or "—"))
    if model.non_round_tags:
        lines.append("")
        for nrt in model.non_round_tags:
            lines.append("Non-round tag: `%s` — %s."
                         % (nrt["tag"], nrt["reason"]))
    return lines


def extract_table_block(protocol_lines):
    try:
        begin = protocol_lines.index(TABLE_BEGIN)
        end = protocol_lines.index(TABLE_END)
    except ValueError:
        return None
    if end <= begin:
        return None
    return protocol_lines[begin + 1:end]


def update_protocol(model, protocol_path):
    lines = read_lines(protocol_path)
    generated = render_table(model)
    if TABLE_BEGIN in lines and TABLE_END in lines:
        begin = lines.index(TABLE_BEGIN)
        end = lines.index(TABLE_END)
        lines = lines[:begin + 1] + generated + lines[end:]
    else:
        raise ModelError(
            "%s does not contain the %r/%r markers; add them where the "
            "table belongs" % (protocol_path, TABLE_BEGIN, TABLE_END))
    with open(protocol_path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


# --------------------------------------------------------------------
# Scan driver.
# --------------------------------------------------------------------

def iter_tree_files(src_root):
    for dirpath, _, files in os.walk(src_root):
        for f in sorted(files):
            if f.endswith((".cc", ".cpp", ".h", ".hpp")):
                yield os.path.join(dirpath, f)


class ScanConfig:
    def __init__(self, model_path=MODEL_PATH, message_header=MESSAGE_HEADER,
                 protocol_path=PROTOCOL_PATH, allowlist_path=ALLOWLIST_PATH,
                 src_root=os.path.join(REPO_ROOT, "src"), files=None):
        self.model_path = model_path
        self.message_header = message_header
        self.protocol_path = protocol_path
        self.allowlist_path = allowlist_path
        self.src_root = src_root
        self.files = files


def run_checks(config, engine, cindex, compile_db, findings,
               dump_sites=False):
    try:
        model = load_model(config.model_path)
    except ModelError as e:
        findings.report(rel(config.model_path), 1, "PC000",
                        "model error: %s" % e)
        return None
    paths = config.files if config.files \
        else sorted(iter_tree_files(config.src_root))
    facts_by_file = {}
    for path in paths:
        clang_extents = None
        if engine == "clang":
            try:
                tu = parse_tu(cindex, path, args_for_path(path, compile_db))
                clang_extents = function_extents(tu, path)
            except Exception as e:  # degrade per-TU, keep scanning
                print("dash_proto: libclang failed on %s (%s); regex "
                      "extents for this file" % (rel(path), e),
                      file=sys.stderr)
        facts = extract_file(path, clang_extents=clang_extents)
        facts_by_file[facts.relpath] = facts
    if dump_sites:
        for relpath in sorted(facts_by_file):
            for s in sorted(facts_by_file[relpath].sites,
                            key=lambda s: s.line):
                print(repr(s))
    check_extraction(model, facts_by_file, findings)
    check_pc001(model, facts_by_file, findings)
    check_pc002(model, config.message_header, config.protocol_path, findings)
    check_pc003(model, facts_by_file, findings)
    check_pc004(model, facts_by_file, findings)
    check_pc005(model, config.allowlist_path, findings)
    return model


def run_scan(args):
    cindex, engine = pick_engine(args.mode, "dash_proto")
    compile_db = load_compile_db(args.build_dir) if engine == "clang" \
        else None
    config = ScanConfig(files=[os.path.abspath(p) for p in args.files]
                        if args.files else None)
    findings = Findings()
    run_checks(config, engine, cindex, compile_db, findings,
               dump_sites=args.dump_sites)
    for line in findings.lines():
        print(line)
    nfiles = len(args.files) if args.files else \
        len(list(iter_tree_files(config.src_root)))
    print("dash_proto[%s]: %d files, %d findings"
          % (engine, nfiles, len(findings.items)), file=sys.stderr)
    return 1 if findings.items else 0


def run_check_table():
    model = load_model(MODEL_PATH)
    block = extract_table_block(read_lines(PROTOCOL_PATH))
    if block is None:
        print("dash_proto: PROTOCOL.md has no generated-table markers",
              file=sys.stderr)
        return 1
    if block != render_table(model):
        print("dash_proto: PROTOCOL.md round table is stale — run "
              "tools/dash_proto.py --update-protocol", file=sys.stderr)
        return 1
    print("dash_proto: PROTOCOL.md round table is fresh", file=sys.stderr)
    return 0


# --------------------------------------------------------------------
# Self-test over tools/proto_fixtures/<scenario>/.
#
# Each scenario directory contains a complete miniature tree:
#   model.yaml     protocol model for the scenario
#   message.h      MessageTag enum stand-in
#   *.cc           runner sources (first lines carry
#                  `dash-proto-fixture-as: src/...` path masquerades)
#   protocol.md    round-table document (optional; absent = synthesized
#                  fresh from the model so PC002 table checks pass)
#   allowlist.txt  secrecy allowlist stand-in (optional; absent = empty)
#   EXPECT         expected findings, one `EXPECT: PCxxx` line per rule
#                  (a rule may repeat; comparison is by rule-ID set)
# --------------------------------------------------------------------

def scenario_expected(path):
    out = set()
    for raw in read_lines(path):
        m = re.search(r"EXPECT:\s*(PC\d{3})", raw)
        if m:
            out.add(m.group(1))
    return out


def run_scenario(scenario_dir, engine, cindex):
    model_path = os.path.join(scenario_dir, "model.yaml")
    message_h = os.path.join(scenario_dir, "message.h")
    allowlist = os.path.join(scenario_dir, "allowlist.txt")
    protocol = os.path.join(scenario_dir, "protocol.md")
    sources = sorted(
        os.path.join(scenario_dir, f) for f in os.listdir(scenario_dir)
        if f.endswith(".cc"))
    temps = []
    try:
        if not os.path.isfile(protocol):
            # Synthesize a fresh table so PC002's doc checks stay neutral.
            model = load_model(model_path)
            protocol = _temp_file(
                temps, "\n".join([TABLE_BEGIN] + render_table(model)
                                 + [TABLE_END]) + "\n")
        if not os.path.isfile(allowlist):
            allowlist = _temp_file(temps, "# empty\n")
        config = ScanConfig(model_path=model_path, message_header=message_h,
                            protocol_path=protocol, allowlist_path=allowlist,
                            files=sources)
        findings = Findings()
        run_checks(config, engine, cindex, None, findings)
        return findings
    finally:
        for t in temps:
            os.remove(t)


def _temp_file(temps, content):
    import tempfile
    fd, path = tempfile.mkstemp(suffix=".md", prefix="dash_proto_fixture_")
    with os.fdopen(fd, "w", encoding="utf-8") as f:
        f.write(content)
    temps.append(path)
    return path


def run_self_test(mode):
    cindex, engine = pick_engine(mode, "dash_proto")
    scenarios = sorted(
        d for d in os.listdir(FIXTURE_DIR)
        if os.path.isdir(os.path.join(FIXTURE_DIR, d)))
    failures = []
    for name in scenarios:
        sdir = os.path.join(FIXTURE_DIR, name)
        findings = run_scenario(sdir, engine, cindex)
        got = findings.rules()
        want = scenario_expected(os.path.join(sdir, "EXPECT"))
        if got != want:
            failures.append("%s: expected %s, got %s%s" % (
                name, sorted(want), sorted(got),
                "; " + "; ".join(findings.lines()) if findings.items
                else ""))

    # The real model must validate clean against the real tree.
    findings = Findings()
    run_checks(ScanConfig(), engine, cindex, None, findings)
    if findings.items:
        failures.append("real tree scan is not clean: %s"
                        % "; ".join(findings.lines()))

    for f in failures:
        print("self-test FAIL:", f)
    total = len(scenarios) + 1
    print("dash_proto[%s] --self-test: %d/%d checks pass"
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
                        help="verify against tools/proto_fixtures")
    parser.add_argument("--emit-table", action="store_true",
                        help="print the generated PROTOCOL.md round table")
    parser.add_argument("--update-protocol", action="store_true",
                        help="rewrite PROTOCOL.md's generated table block")
    parser.add_argument("--check-table", action="store_true",
                        help="verify PROTOCOL.md's table is fresh")
    parser.add_argument("--dump-sites", action="store_true",
                        help="print extracted wire sites")
    args = parser.parse_args()
    if args.emit_table:
        print("\n".join(render_table(load_model(MODEL_PATH))))
        return 0
    if args.update_protocol:
        update_protocol(load_model(MODEL_PATH), PROTOCOL_PATH)
        print("dash_proto: PROTOCOL.md round table regenerated",
              file=sys.stderr)
        return 0
    if args.check_table:
        return run_check_table()
    if args.self_test:
        return run_self_test(args.mode)
    return run_scan(args)


if __name__ == "__main__":
    sys.exit(main())
