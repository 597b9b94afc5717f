#!/usr/bin/env python3
"""Shard-safety static analyzer for the blockhead repo (ci.sh --analyze).

The ROADMAP's parallel simulation core will shard the simulator by channel/plane. Before any
thread exists, every piece of shared mutable state must be inventoried and assigned a shard
domain via the tags in src/core/shard_safety.h:

  BLOCKHEAD_SHARD_LOCAL(domain)   owned by one shard of `domain` (channel/plane/zone, or
                                  `owner` for value types embedded in a larger object)
  BLOCKHEAD_SHARD_SHARED          crosses shards; needs a merge rule or lock before sharding
  BLOCKHEAD_SIM_GLOBAL            simulation-global context (telemetry, ledgers, audit)
  BLOCKHEAD_GUARDED_BY(mu)        clang thread-safety guarded member (counts as annotated)

This tool is a cross-TU pass over src/ built on a real tokenizer and a per-file symbol table
(stdlib only, like tools/lint.py). It:

  * inventories every mutable static / namespace-scope global / function-local static;
  * inventories every annotated member and every *unannotated* mutable member of a `class`
    whose defining header is reachable (via the src/ include graph) from two or more
    subsystem directories — `struct` types are passive value aggregates by project
    convention, so their sharing is declared at the embedding member instead;
  * emits a deterministic, machine-readable report (shard_safety_report.json): for each
    inventoried symbol, the subsystem access matrix (symbol x subsystem x read/write), which
    is the sharding plan's ground truth;
  * fails (exit 1) on any unannotated shared mutable state not in the committed allowlist
    (tools/shard_safety_allowlist.txt), and on any *stale* allowlist entry — the allowlist
    may only shrink, never grow.

Heuristics and their direction of error: member-name occurrences are attributed to every
symbol of that name whose defining header the accessing file includes (collisions
over-approximate the matrix — the safe direction for a sharding plan), and method calls not
in the known-mutating list count as reads (writes are under-approximated only through
accessors, never through direct assignment).

Negative test: BLOCKHEAD_ANALYZE_SEED_VIOLATION=1 (or --seed-violation) activates
`#ifdef BLOCKHEAD_ANALYZE_SEED_VIOLATION` blocks in src/, each hiding a deliberately
unannotated mutable static that must be caught and named.

Usage:
  tools/shard_analyze.py [--root DIR] [--output FILE] [--allowlist FILE]
                         [--write-allowlist] [--seed-violation] [--quiet]
"""

import argparse
import json
import os
import re
import sys

SEED_MACRO = "BLOCKHEAD_ANALYZE_SEED_VIOLATION"
DOMAIN_TAGS = ("BLOCKHEAD_SHARD_LOCAL", "BLOCKHEAD_SHARD_SHARED", "BLOCKHEAD_SIM_GLOBAL")
GUARD_TAGS = ("BLOCKHEAD_GUARDED_BY", "BLOCKHEAD_PT_GUARDED_BY")
ANNOTATION_TAGS = DOMAIN_TAGS + GUARD_TAGS

# Statement-leading keywords that can never start a data-member declaration.
SKIP_START = {
    "using", "typedef", "friend", "static_assert", "template", "enum", "operator",
    "public", "private", "protected", "class", "struct", "union", "explicit", "virtual",
    "extern", "return", "if", "for", "while", "switch", "case", "default", "do", "goto",
    "namespace", "~",
}
CXX_KEYWORDS = {
    "const", "constexpr", "mutable", "static", "inline", "volatile", "unsigned", "signed",
    "int", "long", "short", "char", "bool", "float", "double", "void", "auto", "nullptr",
    "true", "false", "sizeof", "new", "delete", "this", "noexcept", "override", "final",
    "default", "delete",
}
ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}
INCDEC_OPS = {"++", "--"}
# Container / project mutators: a call `sym.M(...)` with M here counts as a write to sym.
MUTATING_METHODS = {
    "push_back", "pop_back", "emplace_back", "push_front", "pop_front", "emplace",
    "insert", "erase", "clear", "resize", "assign", "reset", "swap", "Add", "Set",
    "Record", "Append", "Merge", "Acquire", "Release", "Fold", "Unfold", "Enable",
}

TOKEN_RE = re.compile(
    r"::|->\*?|\+\+|--|<<=|>>=|<=|>=|==|!=|\+=|-=|\*=|/=|%=|&=|\|=|\^=|&&|\|\||"
    r"[A-Za-z_][A-Za-z0-9_]*|0[xX][0-9a-fA-F']+|[0-9][0-9a-fA-F'.eEpPlLuUxX+-]*|\S")

STRING_OR_COMMENT_RE = re.compile(
    r'"(?:\\.|[^"\\])*"'      # string literal
    r"|'(?:\\.|[^'\\])*'"     # char literal
    r"|//[^\n]*",             # line comment
    re.DOTALL)

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
PP_COND_RE = re.compile(r"^\s*#\s*(ifdef|ifndef|if|elif|else|endif)\b(.*)$")


class Token:
    __slots__ = ("value", "line")

    def __init__(self, value, line):
        self.value = value
        self.line = line


def tokenize(text, seed_violation=False):
    """Tokens + direct includes for one file, with comments/strings/chars stripped.

    Preprocessor lines are consumed (includes recorded). `#ifdef BLOCKHEAD_ANALYZE_SEED_
    VIOLATION` blocks are skipped unless seed_violation is set; every other conditional's
    body is scanned unconditionally (include guards must pass through).
    """
    # Block comments first (they may span lines); keep newlines so line numbers survive.
    def blank_keep_newlines(m):
        return "".join("\n" if c == "\n" else " " for c in m.group(0))

    text = re.sub(r"/\*.*?\*/", blank_keep_newlines, text, flags=re.DOTALL)

    tokens = []
    includes = []
    # Depth counter of enclosing seed-violation-gated blocks we are skipping, plus the
    # nesting depth of *all* conditionals inside a skipped region (to find its #endif).
    pp_stack = []  # One entry per open conditional: True if it is a skipped seed block.
    lines = text.split("\n")
    i = 0
    while i < len(lines):
        line = lines[i]
        lineno = i + 1
        stripped = line.lstrip()
        if stripped.startswith("#"):
            # Join continuation lines.
            while line.rstrip().endswith("\\") and i + 1 < len(lines):
                i += 1
                line = line.rstrip()[:-1] + lines[i]
            m = PP_COND_RE.match(line)
            if m:
                kind = m.group(1)
                cond = m.group(2)
                if kind in ("ifdef", "ifndef", "if"):
                    skip = (kind == "ifdef" and SEED_MACRO in cond and not seed_violation)
                    pp_stack.append(skip)
                elif kind == "endif":
                    if pp_stack:
                        pp_stack.pop()
                # else / elif: keep current skip state (seed blocks carry no #else).
            else:
                inc = INCLUDE_RE.match(line)
                if inc and not any(pp_stack):
                    includes.append(inc.group(1))
            i += 1
            continue
        if any(pp_stack):
            i += 1
            continue
        line = STRING_OR_COMMENT_RE.sub(" ", line)
        for m in TOKEN_RE.finditer(line):
            tokens.append(Token(m.group(0), lineno))
        i += 1
    return tokens, includes


class Symbol:
    """One inventoried piece of mutable state."""

    def __init__(self, name, qualified, kind, file, line, subsystem, annotation=None,
                 shard_key=None, type_keyword=None, cross=False):
        self.name = name                  # Bare identifier (matrix scan key).
        self.qualified = qualified        # "Class::member" or "path::global".
        self.kind = kind                  # member | global | static-local | class-static
        self.file = file
        self.line = line
        self.subsystem = subsystem
        self.annotation = annotation      # shard_local | shard_shared | sim_global |
        #                                   guarded_by | None
        self.shard_key = shard_key        # SHARD_LOCAL domain / GUARDED_BY capability.
        self.type_keyword = type_keyword  # class | struct (members only).
        self.cross = cross                # Defining header reachable from >= 2 subsystems.
        self.access = {}                  # subsystem -> "r" | "w" | "rw"

    def note_access(self, subsystem, is_write):
        cur = self.access.get(subsystem, "")
        add = "w" if is_write else "r"
        if add not in cur:
            self.access[subsystem] = "".join(sorted(cur + add, reverse=True))


def subsystem_of(rel_path):
    parts = rel_path.split(os.sep)
    return parts[1] if len(parts) > 1 and parts[0] == "src" else parts[0]


def extract_annotation(tokens):
    """Removes annotation macro tokens from a statement; returns (rest, kind, key)."""
    rest = []
    kind = None
    key = None
    i = 0
    while i < len(tokens):
        v = tokens[i].value
        if v in ANNOTATION_TAGS:
            if v == "BLOCKHEAD_SHARD_SHARED":
                kind = "shard_shared"
            elif v == "BLOCKHEAD_SIM_GLOBAL":
                kind = "sim_global"
            else:
                kind = ("shard_local" if v == "BLOCKHEAD_SHARD_LOCAL" else "guarded_by")
                # Consume "( args )" capturing the argument text.
                if i + 1 < len(tokens) and tokens[i + 1].value == "(":
                    depth = 0
                    arg = []
                    i += 1
                    while i < len(tokens):
                        t = tokens[i].value
                        if t == "(":
                            depth += 1
                            if depth == 1:
                                i += 1
                                continue
                        elif t == ")":
                            depth -= 1
                            if depth == 0:
                                break
                        arg.append(t)
                        i += 1
                    key = "".join(arg)
            i += 1
            continue
        rest.append(tokens[i])
        i += 1
    return rest, kind, key


def parse_declaration(stmt):
    """Classifies one class-body or namespace-scope statement.

    Returns (name, line, is_static, is_mutable_state) or None for non-data statements.
    """
    stmt = [t for t in stmt if t.value not in ("inline", "mutable", "volatile")]
    if not stmt or stmt[0].value in SKIP_START:
        return None
    values = [t.value for t in stmt]
    if "constexpr" in values:
        return None
    is_static = "static" in values
    stmt = [t for t in stmt if t.value != "static"]
    values = [t.value for t in stmt]
    if not stmt:
        return None
    # Reference members alias state owned elsewhere; `const` without indirection is
    # immutable. (`const char* p_` keeps a mutable pointer and stays inventoried.)
    if "&" in values:
        return None
    if "const" in values and "*" not in values:
        return None
    # Walk to the declarator terminator at top nesting level. A top-level "(" means a
    # function (members use `= init` or brace-init, never parenthesized init).
    angle = 0
    name = None
    line = stmt[0].line
    for i, t in enumerate(stmt):
        v = t.value
        if v == "<":
            angle += 1
        elif v == ">":
            angle = max(0, angle - 1)
        elif v == ">>":
            angle = max(0, angle - 2)
        elif angle == 0:
            if v == "(":
                return None
            if v in ("=", "{", "[", ";"):
                break
            if re.match(r"[A-Za-z_]\w*$", v) and v not in CXX_KEYWORDS:
                name = t.value
                line = t.line
    if name is None:
        return None
    return name, line, is_static, True


class FileInfo:
    def __init__(self, rel_path):
        self.rel_path = rel_path
        self.subsystem = subsystem_of(rel_path)
        self.tokens = []
        self.includes = []
        self.members = []   # (class_name, type_keyword, Symbol-less tuples)
        self.globals = []


def parse_file(info):
    """Builds the per-file symbol table: classes, members, globals, local statics."""
    tokens = info.tokens
    n = len(tokens)
    results_members = []   # (class_name, type_keyword, name, line, annotation, key, static)
    results_globals = []   # (name, line, kind, annotation, key)

    def scan_body_for_statics(lo, hi):
        j = lo
        while j < hi:
            if tokens[j].value == "static":
                stmt = []
                k = j + 1
                while k < hi and tokens[k].value != ";":
                    stmt.append(tokens[k])
                    k += 1
                values = [t.value for t in stmt]
                if ("const" not in values and "constexpr" not in values
                        and "(" not in values):
                    name = None
                    for t in stmt:
                        if re.match(r"[A-Za-z_]\w*$", t.value) \
                                and t.value not in CXX_KEYWORDS:
                            name = t
                    if name is not None:
                        results_globals.append(
                            (name.value, name.line, "static-local", None, None))
                j = k
            j += 1

    def skip_balanced(i, open_ch, close_ch):
        depth = 0
        while i < n:
            v = tokens[i].value
            if v == open_ch:
                depth += 1
            elif v == close_ch:
                depth -= 1
                if depth == 0:
                    return i + 1
            i += 1
        return n

    def parse_scope(i, end, class_name, type_keyword):
        """Parses statements in [i, end): class body when class_name else namespace."""
        while i < end:
            v = tokens[i].value
            if v == ";":
                i += 1
                continue
            if v in ("public", "private", "protected") and i + 1 < end \
                    and tokens[i + 1].value == ":":
                i += 2
                continue
            if v == "namespace":
                j = i + 1
                while j < end and tokens[j].value not in ("{", ";"):
                    j += 1
                if j < end and tokens[j].value == "{":
                    close = skip_balanced(j, "{", "}")
                    parse_scope(j + 1, close - 1, None, None)
                    i = close
                else:
                    i = j + 1
                continue
            if v in ("class", "struct", "union"):
                # Type definition (or forward declaration) at this or nested scope.
                j = i + 1
                name = None
                while j < end and tokens[j].value not in ("{", ";"):
                    if name is None and re.match(r"[A-Za-z_]\w*$", tokens[j].value) \
                            and tokens[j].value not in CXX_KEYWORDS \
                            and tokens[j].value not in ANNOTATION_TAGS \
                            and tokens[j].value != "BLOCKHEAD_CAPABILITY":
                        name = tokens[j].value
                    j += 1
                if j < end and tokens[j].value == "{":
                    close = skip_balanced(j, "{", "}")
                    parse_scope(j + 1, close - 1, name or "<anon>", v)
                    i = close
                else:
                    i = j + 1
                continue
            if v == "enum":
                j = i + 1
                while j < end and tokens[j].value not in ("{", ";"):
                    j += 1
                i = skip_balanced(j, "{", "}") if j < end and tokens[j].value == "{" \
                    else j + 1
                continue
            if v == "template":
                # Skip the parameter list; the declaration that follows is handled next.
                j = i + 1
                if j < end and tokens[j].value == "<":
                    depth = 0
                    while j < end:
                        if tokens[j].value == "<":
                            depth += 1
                        elif tokens[j].value == ">":
                            depth -= 1
                            if depth == 0:
                                break
                        elif tokens[j].value == ">>":
                            depth -= 2
                            if depth <= 0:
                                break
                        j += 1
                    i = j + 1
                else:
                    i = j
                continue
            # Generic statement: collect to the terminating ';' at top level, treating a
            # '{' that is not an initializer as a body to skip (function/ctor definition).
            stmt = []
            j = i
            saw_eq = False
            body_lo = body_hi = None
            depth_paren = 0
            while j < end:
                t = tokens[j].value
                if t == "=" and depth_paren == 0:
                    saw_eq = True
                if t == "(":
                    depth_paren += 1
                elif t == ")":
                    depth_paren = max(0, depth_paren - 1)
                elif t == "{" and depth_paren == 0:
                    close = skip_balanced(j, "{", "}")
                    if not saw_eq and not (stmt and stmt[-1].value == "="):
                        body_lo, body_hi = j + 1, close - 1
                        j = close
                        # A definition body may be followed by ';' (member fns aren't).
                        if j < end and tokens[j].value == ";":
                            j += 1
                        break
                    j = close
                    continue
                elif t == ";" and depth_paren == 0:
                    j += 1
                    break
                stmt.append(tokens[j])
                j += 1
            if body_lo is not None:
                scan_body_for_statics(body_lo, body_hi)
                # Brace-init members (`RequestPathLedger reqpath{&registry, &timeline};`)
                # carry no '(' and no body keyword; real bodies follow a ')' — distinguish
                # by the last stmt token: a declarator name means brace-init, ')' /
                # noexcept etc. a body.
                if stmt and re.match(r"[A-Za-z_]\w*$", stmt[-1].value) \
                        and stmt[-1].value not in CXX_KEYWORDS \
                        and "(" not in [t.value for t in stmt]:
                    pass  # Fall through to declaration parsing below.
                else:
                    i = j
                    continue
            rest, ann, key = extract_annotation(stmt)
            parsed = parse_declaration(rest)
            i = j
            if parsed is None:
                if ann is not None and rest:
                    # Annotated but unparsable: surface it rather than dropping silently.
                    results_globals.append((rest[-1].value, rest[-1].line,
                                            "unparsed", ann, key))
                continue
            name, line, is_static, _ = parsed
            if class_name is not None and not is_static:
                results_members.append(
                    (class_name, type_keyword, name, line, ann, key))
            else:
                kind = "class-static" if class_name is not None else "global"
                results_globals.append((name, line, kind, ann, key))

    parse_scope(0, n, None, None)
    info.members = results_members
    info.globals = results_globals


def load_tree(root, seed_violation):
    infos = {}
    src_root = os.path.join(root, "src")
    for dirpath, _, names in os.walk(src_root):
        for name in sorted(names):
            if not name.endswith((".h", ".cc")):
                continue
            rel = os.path.relpath(os.path.join(dirpath, name), root)
            with open(os.path.join(root, rel), encoding="utf-8") as f:
                text = f.read()
            info = FileInfo(rel)
            info.tokens, info.includes = tokenize(text, seed_violation)
            parse_file(info)
            infos[rel] = info
    return infos


def include_closure(infos):
    """rel_path -> set of src/ files transitively included (self included)."""
    direct = {rel: {inc for inc in info.includes if inc in infos}
              for rel, info in infos.items()}
    closure = {}

    def visit(rel, seen):
        if rel in closure:
            return closure[rel]
        seen.add(rel)
        result = {rel}
        for inc in direct[rel]:
            if inc in seen and inc not in closure:
                continue  # Cycle guard (include guards make real cycles harmless).
            result |= visit(inc, seen)
        closure[rel] = result
        return result

    for rel in sorted(direct):
        visit(rel, set())
    return closure


def reachable_subsystems(infos, closure):
    """header rel_path -> sorted subsystems whose files (transitively) include it."""
    reach = {rel: set() for rel in infos}
    for rel, info in infos.items():
        for included in closure[rel]:
            reach[included].add(info.subsystem)
    return {rel: sorted(subs) for rel, subs in reach.items()}


def build_symbols(infos, reach):
    symbols = []
    for rel in sorted(infos):
        info = infos[rel]
        cross = len(reach[rel]) >= 2
        for class_name, type_keyword, name, line, ann, key in info.members:
            symbols.append(Symbol(
                name, f"{class_name}::{name}", "member", rel, line, info.subsystem,
                annotation=ann, shard_key=key, type_keyword=type_keyword, cross=cross))
        for name, line, kind, ann, key in info.globals:
            if kind == "unparsed":
                continue
            symbols.append(Symbol(
                name, f"{rel.replace(os.sep, '/')}::{name}", kind, rel, line,
                info.subsystem, annotation=ann, shard_key=key, cross=cross))
    return symbols


def compute_access(symbols, infos, closure):
    by_name = {}
    for sym in symbols:
        by_name.setdefault(sym.name, []).append(sym)
    decl_sites = {(s.file, s.line, s.name) for s in symbols}
    for rel in sorted(infos):
        info = infos[rel]
        visible = closure[rel]
        tokens = info.tokens
        n = len(tokens)
        for i, tok in enumerate(tokens):
            candidates = by_name.get(tok.value)
            if not candidates:
                continue
            if (rel, tok.line, tok.value) in decl_sites:
                continue
            nxt = tokens[i + 1].value if i + 1 < n else ""
            prev = tokens[i - 1].value if i > 0 else ""
            is_write = nxt in ASSIGN_OPS or nxt in INCDEC_OPS or prev in INCDEC_OPS
            if not is_write and nxt == "[":
                depth = 0
                j = i + 1
                while j < n:
                    if tokens[j].value == "[":
                        depth += 1
                    elif tokens[j].value == "]":
                        depth -= 1
                        if depth == 0:
                            break
                    j += 1
                after = tokens[j + 1].value if j + 1 < n else ""
                is_write = after in ASSIGN_OPS or after in INCDEC_OPS
            if not is_write and nxt in (".", "->"):
                method = tokens[i + 2].value if i + 2 < n else ""
                call = tokens[i + 3].value if i + 3 < n else ""
                is_write = method in MUTATING_METHODS and call == "("
            for sym in candidates:
                if sym.file in visible or sym.file == rel:
                    sym.note_access(info.subsystem, is_write)


def load_allowlist(path):
    entries = {}
    if not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise SystemExit(f"{path}:{lineno}: malformed allowlist line: {line!r}")
            entries[(parts[0], parts[1])] = lineno
    return entries


def collect_findings(symbols):
    """Finding tuples (finding_class, symbol) for unannotated shared mutable state."""
    findings = []
    for sym in symbols:
        if sym.annotation is not None:
            continue
        if sym.kind in ("global", "static-local", "class-static"):
            findings.append(("mutable-static", sym))
        elif sym.kind == "member" and sym.cross and sym.type_keyword == "class":
            findings.append(("cross-subsystem-member", sym))
    return findings


def render_report(symbols, findings, allowlisted, stale, files_scanned):
    def sym_json(sym, finding_class=None):
        out = {
            "symbol": sym.qualified,
            "kind": sym.kind,
            "file": sym.file.replace(os.sep, "/"),
            "line": sym.line,
            "subsystem": sym.subsystem,
            "cross_subsystem": sym.cross,
            "access": {k: v for k, v in sorted(sym.access.items())},
        }
        if sym.annotation is not None:
            out["domain"] = sym.annotation
            if sym.shard_key:
                out["shard_key"] = sym.shard_key
        if finding_class is not None:
            out["finding_class"] = finding_class
        return out

    annotated = [s for s in symbols if s.annotation is not None]
    annotated.sort(key=lambda s: (s.qualified, s.file, s.line))
    report = {
        "schema": "blockhead-shard-safety-v1",
        "files_scanned": files_scanned,
        "summary": {
            "annotated": len(annotated),
            "shard_local": sum(1 for s in annotated if s.annotation == "shard_local"),
            "shard_shared": sum(1 for s in annotated if s.annotation == "shard_shared"),
            "sim_global": sum(1 for s in annotated if s.annotation == "sim_global"),
            "guarded_by": sum(1 for s in annotated if s.annotation == "guarded_by"),
            "allowlisted": len(allowlisted),
            "findings": len(findings),
            "stale_allowlist_entries": len(stale),
        },
        "symbols": [sym_json(s) for s in annotated],
        "allowlisted": [sym_json(s, c) for c, s in
                        sorted(allowlisted, key=lambda e: (e[1].qualified, e[0]))],
        "findings": [sym_json(s, c) for c, s in
                     sorted(findings, key=lambda e: (e[1].qualified, e[0]))],
        "stale_allowlist_entries": sorted(
            [{"finding_class": c, "symbol": q} for c, q in stale],
            key=lambda e: (e["symbol"], e["finding_class"])),
    }
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    default_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser.add_argument("--root", default=default_root)
    parser.add_argument("--output", default=None,
                        help="report path (default: <root>/shard_safety_report.json)")
    parser.add_argument("--allowlist", default=None,
                        help="allowlist path (default: <root>/tools/"
                             "shard_safety_allowlist.txt)")
    parser.add_argument("--write-allowlist", action="store_true",
                        help="rewrite the allowlist from current findings (bootstrap / "
                             "shrink only; review the diff before committing)")
    parser.add_argument("--seed-violation", action="store_true",
                        help=f"activate #ifdef {SEED_MACRO} blocks (negative test)")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    seed = args.seed_violation or bool(os.environ.get(SEED_MACRO))
    output = args.output or os.path.join(args.root, "shard_safety_report.json")
    allowlist_path = args.allowlist or os.path.join(
        args.root, "tools", "shard_safety_allowlist.txt")

    infos = load_tree(args.root, seed)
    closure = include_closure(infos)
    reach = reachable_subsystems(infos, closure)
    symbols = build_symbols(infos, reach)
    compute_access(symbols, infos, closure)

    raw_findings = collect_findings(symbols)
    allow = load_allowlist(allowlist_path)

    findings = []
    allowlisted = []
    hit_keys = set()
    for finding_class, sym in raw_findings:
        keyed = (finding_class, sym.qualified)
        if keyed in allow:
            allowlisted.append((finding_class, sym))
            hit_keys.add(keyed)
        else:
            findings.append((finding_class, sym))
    stale = sorted(set(allow) - hit_keys)

    if args.write_allowlist:
        lines = [
            "# Shard-safety allowlist: unannotated shared mutable state grandfathered in",
            "# before the sharded core lands. The analyzer (tools/shard_analyze.py) fails",
            "# on entries here that are no longer flagged — this file may only SHRINK:",
            "# resolve an entry by annotating the symbol (src/core/shard_safety.h tags),",
            "# then delete its line. Never add entries for new code.",
            "#",
            "# <finding-class> <symbol>",
        ]
        for finding_class, sym in sorted(
                raw_findings, key=lambda e: (e[0], e[1].qualified)):
            lines.append(f"{finding_class} {sym.qualified}")
        with open(allowlist_path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
        print(f"shard_analyze.py: wrote {len(raw_findings)} entries to {allowlist_path}")
        return 0

    report_text = render_report(symbols, findings, allowlisted, stale, len(infos))
    with open(output, "w", encoding="utf-8") as f:
        f.write(report_text)

    rc = 0
    for finding_class, sym in sorted(findings, key=lambda e: (e[1].qualified, e[0])):
        print(f"{sym.file}:{sym.line}: [{finding_class}] {sym.qualified} is unannotated "
              "shared mutable state — tag it with a shard-domain annotation "
              "(src/core/shard_safety.h)")
        rc = 1
    for finding_class, qualified in stale:
        print(f"{allowlist_path}: stale allowlist entry `{finding_class} {qualified}` — "
              "the symbol is no longer flagged; delete the line (the allowlist only "
              "shrinks)")
        rc = 1
    if not args.quiet:
        annotated = sum(1 for s in symbols if s.annotation is not None)
        print(f"shard_analyze.py: {len(infos)} files, {annotated} annotated symbols, "
              f"{len(allowlisted)} allowlisted, {len(findings)} finding(s), "
              f"{len(stale)} stale allowlist entr(ies) -> {output}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
