#!/usr/bin/env python3
"""ctest driver for uolap-analyze (registered as analyze_fixture_test).

Runs the analyzer over the fixture corpus in this directory and asserts:

  1. the findings match expected.txt EXACTLY — rule IDs, file:line
     anchors, severities, and messages (so any behaviour drift in a rule
     is a visible diff, not a silent regression);
  2. the per-line suppression marker dropped exactly one finding
     (the allow(CON-STORAGE) site in src/storage/bad_storage.cc);
  3. every rule family (DET-*, LAY-*, CON-*) is represented;
  4. the machine-readable JSON findings format is well-formed and
     consistent with the text output;
  5. exit codes: 1 with findings, 0 on a clean subtree.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
ANALYZER = os.path.join(REPO, "scripts", "analyze")

FAILURES = []


def check(cond, what):
    if cond:
        print(f"ok: {what}")
    else:
        print(f"FAIL: {what}")
        FAILURES.append(what)


def run(*extra):
    cmd = [sys.executable, ANALYZER, "src", "bench",
           "--root", HERE] + list(extra)
    return subprocess.run(cmd, capture_output=True, text=True)


def main():
    with open(os.path.join(HERE, "expected.txt"), encoding="utf-8") as f:
        expected = f.read().splitlines()

    tmp = tempfile.mkdtemp(prefix="uolap_analyze_test_")
    json_path = os.path.join(tmp, "findings.json")

    # 1. Exact-match findings + exit code.
    proc = run("--json", json_path)
    got = proc.stdout.splitlines()
    summary = got[-1] if got else ""
    findings = got[:-1]
    check(proc.returncode == 1, "exit code 1 with findings")
    if findings != expected:
        import difflib
        sys.stdout.writelines(difflib.unified_diff(
            expected, findings, "expected.txt", "analyzer output",
            lineterm=""))
        print()
    check(findings == expected,
          f"findings match expected.txt ({len(expected)} lines)")

    # 2. The reasoned suppression dropped exactly one finding.
    check("1 suppressed" in summary,
          f"suppression count in summary: {summary!r}")
    check(not any("bad_storage.cc:17" in line for line in findings),
          "suppressed CON-STORAGE site is absent from findings")

    # 3. Every rule family is exercised by the corpus.
    for family_prefix in ("DET-", "LAY-", "CON-"):
        check(any(f"[{family_prefix}" in line for line in findings),
              f"family {family_prefix}* represented")
    # ... and every individual rule that has a bad fixture.
    for rule_id in ("DET-RNG", "DET-WALLCLOCK", "DET-UNORDERED-SIM",
                    "DET-UNORDERED-ITER", "DET-PTR-ORDER",
                    "DET-FLOAT-ACCUM", "LAY-DAG", "LAY-CYCLE",
                    "CON-METRIC-NAME", "CON-TESTONLY",
                    "CON-TESTONLY-REF", "CON-GUARD", "CON-USING-NS",
                    "CON-INCLUDE-ORDER", "CON-STORAGE", "CON-SIM-ADDR",
                    "CON-IO-CHECKED"):
        check(any(f"[{rule_id}]" in line for line in findings),
              f"rule {rule_id} fires on its fixture")

    # 4. JSON findings format is consistent with the text output.
    with open(json_path, encoding="utf-8") as f:
        doc = json.load(f)
    check(doc.get("format") == "uolap-analyze-findings v1",
          "JSON format tag")
    check(len(doc["findings"]) == len(findings),
          "JSON finding count matches text output")
    check(doc["summary"]["suppressed"] == 1, "JSON suppressed count")
    by_text = {(f["path"], f["line"], f["rule"])
               for f in doc["findings"]}
    check(("src/core/loop.h", 4, "LAY-CYCLE") in by_text,
          "JSON carries the cycle anchor")

    # 5. A clean subtree exits 0 (only the clean common/ fixture).
    clean_sub = subprocess.run(
        [sys.executable, ANALYZER, "src/common", "--root", HERE],
        capture_output=True, text=True)
    check(clean_sub.returncode == 0, "clean subtree exits 0")

    print(f"\n{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
