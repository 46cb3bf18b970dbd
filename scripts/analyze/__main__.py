#!/usr/bin/env python3
"""uolap-analyze: determinism-and-contracts static analysis for the
uolap tree.  Dependency-free (python3 stdlib only); drives a lightweight
C++ lexer + structure model over the source tree and runs three rule
families (run with --list-rules for the full table):

  DET-*  determinism   ambient entropy, host clocks, unordered-container
                       iteration into ordered sinks, pointer-value
                       ordering, order-sensitive float accumulation
  LAY-*  layering      the module dependency DAG over the real include
                       graph, plus file-level cycle detection
  CON-*  contracts     central metric names, test-only hook
                       confinement, include guards, own-header-first,
                       storage discipline, simulated addresses,
                       checked persistence I/O

Usage:
  python3 scripts/analyze [dirs...] [options]

Options:
  --root=DIR              tree to analyze (default: this repo)
  --json=FILE             machine-readable findings (uolap-analyze v1)
  --compile-commands=FILE cross-check scan coverage against a compile DB
  --list-rules            print the rule table and exit

Suppression: append `// uolap-analyze: allow(RULE-ID) reason` to the
flagged line.  The reason is mandatory by convention and reviewed like
code.  Exit status: 0 clean, 1 findings, 2 usage error.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import engine as eng
import rules_contracts
import rules_determinism
import rules_layering

DEFAULT_SCAN_DIRS = ["src", "bench", "examples", "tests"]
# The fixture corpus is deliberately-violating code; the self-test ctest
# analyzes it with an explicit --root.
DEFAULT_EXCLUDES = ["tests/analyze_fixtures"]

ALL_RULES = (rules_determinism.RULES + rules_layering.RULES +
             rules_contracts.RULES)


def list_rules():
    for fam in ("determinism", "layering", "contracts"):
        for r in ALL_RULES:
            if r.family == fam:
                print(f"{r.rule_id:<20} {r.severity:<8} {r.description}")


def cross_check_compile_db(root, path, files):
    """Compile-DB sources under the scanned dirs that the scan missed
    (generated TUs, stray extensions) — a coverage diagnostic, so holes
    in the scan surface instead of silently shrinking it."""
    try:
        db_files = eng.load_compile_commands(path)
    except (OSError, ValueError, KeyError) as e:
        print(f"uolap-analyze: cannot read compile DB {path}: {e}",
              file=sys.stderr)
        return 1
    missed = []
    for abspath in sorted(db_files):
        rel = os.path.relpath(abspath, root).replace(os.sep, "/")
        if rel.startswith("../"):
            continue
        if rel not in files:
            missed.append(rel)
    if missed:
        print(f"uolap-analyze: note: {len(missed)} compile-DB TU(s) "
              "outside the scan:")
        for rel in missed:
            print(f"  {rel}")
    return 0


def main(argv=None):
    repo_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    p = argparse.ArgumentParser(
        prog="uolap-analyze", add_help=True,
        description="determinism-and-contracts static analysis")
    p.add_argument("dirs", nargs="*", help="directories to scan "
                   "(default: src bench examples tests)")
    p.add_argument("--root", default=repo_root)
    p.add_argument("--json", metavar="FILE", dest="json_out")
    p.add_argument("--compile-commands", metavar="FILE")
    p.add_argument("--list-rules", action="store_true")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-finding text output")
    args = p.parse_args(argv)

    if args.list_rules:
        list_rules()
        return 0

    root = os.path.abspath(args.root)
    if not os.path.isdir(root):
        print(f"uolap-analyze: no such root: {root}", file=sys.stderr)
        return 2
    scan_dirs = args.dirs or DEFAULT_SCAN_DIRS
    excludes = DEFAULT_EXCLUDES if not args.dirs else []

    ctx = eng.AnalysisContext(root, ALL_RULES)
    for abspath, relpath in eng.discover(root, scan_dirs, excludes):
        ctx.files[relpath] = eng.SourceFile(abspath, relpath)
    findings = ctx.run()

    if args.compile_commands:
        if cross_check_compile_db(root, args.compile_commands,
                                  ctx.files):
            return 2

    if not args.quiet:
        for f in findings:
            print(f.text())

    if args.json_out:
        doc = {
            "format": "uolap-analyze-findings v1",
            "root": root,
            "findings": [f.to_json() for f in findings],
            "summary": {
                "files": len(ctx.files),
                "findings": len(findings),
                "suppressed": ctx.suppressed_count,
            },
        }
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")

    print(f"uolap-analyze: {len(findings)} finding(s), "
          f"{ctx.suppressed_count} suppressed ({len(ctx.files)} files)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
