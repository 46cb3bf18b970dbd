"""uolap-analyze rule engine: findings, suppressions, driver.

A *rule* is a callable ``rule(ctx, sf)`` registered with an ID,
severity, family, and one-line description.  ``ctx`` is the whole-tree
:class:`AnalysisContext` (include graph, file list, repo root); ``sf``
is one :class:`SourceFile` (raw lines + token/structure model).  Rules
report through ``ctx.report`` and never print.

Tree-scoped rules (the layering DAG, cycle detection, cross-file
symbol checks) register with ``scope="tree"`` and run once after every
file is parsed.

Suppression: a finding on a line whose source carries

    // uolap-analyze: allow(RULE-ID) reason

is dropped (several IDs comma-separate).  The legacy
``// lint:allow(rule)`` markers of the former line-regex lint are NOT
honoured — they were migrated when this framework replaced the lint.
"""

import json
import os
import re
from dataclasses import dataclass, field

import cppmodel

SEVERITIES = ("error", "warning")

_ALLOW_RE = re.compile(
    r"//\s*uolap-analyze:\s*allow\(([A-Z0-9-]+(?:\s*,\s*[A-Z0-9-]+)*)\)"
    r"\s*(.*)")


@dataclass(frozen=True)
class Rule:
    rule_id: str
    severity: str
    family: str
    description: str
    check: object
    scope: str = "file"  # "file" | "tree"


@dataclass(frozen=True)
class Finding:
    rule_id: str
    severity: str
    path: str      # repo-relative, forward slashes
    line: int      # 1-based
    message: str

    def text(self):
        return (f"{self.path}:{self.line}: {self.severity}: "
                f"[{self.rule_id}] {self.message}")

    def to_json(self):
        return {"rule": self.rule_id, "severity": self.severity,
                "path": self.path, "line": self.line,
                "message": self.message}


class SourceFile:
    """One parsed file: raw text, suppression map, structure model."""

    def __init__(self, abspath, relpath):
        self.abspath = abspath
        self.relpath = relpath
        with open(abspath, encoding="utf-8") as f:
            self.source = f.read()
        self.raw_lines = self.source.splitlines()
        self.model = cppmodel.build(self.source, self.raw_lines)
        self.suppressions = {}  # line -> set of rule IDs
        for lineno, raw in enumerate(self.raw_lines, 1):
            m = _ALLOW_RE.search(raw)
            if m:
                ids = {r.strip() for r in m.group(1).split(",")}
                self.suppressions[lineno] = ids

    @property
    def is_header(self):
        return self.relpath.endswith(".h")

    def in_dirs(self, prefixes):
        return self.relpath.startswith(tuple(p if p.endswith("/") else
                                             p + "/" for p in prefixes))


class AnalysisContext:
    def __init__(self, root, rules):
        self.root = root
        self.rules = rules
        self.files = {}       # relpath -> SourceFile
        self.findings = []
        self.suppressed_count = 0

    def report(self, rule, sf_or_path, lineno, message):
        if isinstance(sf_or_path, SourceFile):
            path = sf_or_path.relpath
            if rule.rule_id in sf_or_path.suppressions.get(lineno, ()):
                self.suppressed_count += 1
                return
        else:
            path = sf_or_path
        self.findings.append(Finding(rule.rule_id, rule.severity, path,
                                     lineno, message))

    def run(self):
        file_rules = [r for r in self.rules if r.scope == "file"]
        tree_rules = [r for r in self.rules if r.scope == "tree"]
        for relpath in sorted(self.files):
            sf = self.files[relpath]
            for rule in file_rules:
                rule.check(self, rule, sf)
        for rule in tree_rules:
            rule.check(self, rule)
        self.findings.sort(key=lambda f: (f.path, f.line, f.rule_id))
        return self.findings


# --- file discovery -------------------------------------------------------

SOURCE_EXTS = (".h", ".cc", ".cpp")


def discover(root, scan_dirs, exclude_dirs=()):
    """Yields (abspath, relpath) of every C++ source under scan_dirs."""
    excludes = tuple(e if e.endswith("/") else e + "/"
                     for e in exclude_dirs)
    for d in scan_dirs:
        top = os.path.join(root, d)
        if not os.path.isdir(top):
            continue
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(SOURCE_EXTS):
                    continue
                abspath = os.path.join(dirpath, name)
                relpath = os.path.relpath(abspath, root).replace(
                    os.sep, "/")
                if (relpath + "/").startswith(excludes) or \
                        relpath.startswith(excludes):
                    continue
                yield abspath, relpath


def load_compile_commands(path):
    """Returns the set of repo-relative sources listed in a
    compile_commands.json, for cross-checking coverage (the analyzer
    scans the tree regardless, so generated or excluded TUs surface as
    a diagnostic rather than silently shrinking the scan)."""
    with open(path, encoding="utf-8") as f:
        entries = json.load(f)
    files = set()
    for e in entries:
        src = e.get("file", "")
        directory = e.get("directory", "")
        if not os.path.isabs(src):
            src = os.path.join(directory, src)
        files.add(os.path.normpath(src))
    return files
