#!/usr/bin/env python3
"""ctest driver for status_discard_test.

Compiles discard_probe.cc with the build's own compiler command for
src/common/status.cc, read from compile_commands.json so the warning and
sanitizer flags match, and passes only when every line marked DISCARD
draws a nodiscard error and no other error appears (an unrelated compile
error must not pass for a rejected discard).

Usage: run_test.py <build-dir>/compile_commands.json
"""

import json
import os
import re
import shlex
import subprocess
import sys

PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "discard_probe.cc")
ERROR_RE = re.compile(r"^(.*?):(\d+):\d+: (?:fatal )?error: (.*)$")


def main():
    with open(sys.argv[1], encoding="utf-8") as f:
        entry = next(e for e in json.load(f)
                     if e["file"].endswith("src/common/status.cc"))
    # Keep the compiler and every flag; drop the output and the input.
    args = shlex.split(entry["command"])
    for flag in ("-o", "-c"):
        i = args.index(flag)
        del args[i:i + 2]
    proc = subprocess.run(args + ["-fsyntax-only", PROBE],
                          cwd=entry["directory"], capture_output=True,
                          text=True)
    print(proc.stderr)

    with open(PROBE, encoding="utf-8") as f:
        marked = {n for n, line in enumerate(f, 1) if "// DISCARD" in line}
    rejected, other = set(), 0
    for m in filter(None, map(ERROR_RE.match, proc.stderr.splitlines())):
        if m.group(1).endswith("discard_probe.cc") and \
                "nodiscard" in m.group(3):
            rejected.add(int(m.group(2)))
        else:
            other += 1
    ok = proc.returncode != 0 and other == 0 and rejected == marked
    print(f"{'ok' if ok else 'FAIL'}: nodiscard errors on lines "
          f"{sorted(rejected)} (want {sorted(marked)}), {other} other "
          "error(s)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
