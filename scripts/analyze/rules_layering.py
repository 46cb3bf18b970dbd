"""Layering rule family (LAY-*).

Enforces the module dependency DAG over the *real* include graph
(every ``#include "..."`` in the tree, resolved against src/), instead
of the per-line directory regexes the old contract lint used:

    common -> core -> {audit, obs, tpch, storage} -> engine
           -> {engines, server} -> harness

plus file-level cycle detection — a cycle is a layering bug even when
every individual edge stays inside one module.

The DAG below is the authoritative statement of which module may
include which (a module always may include itself and the standard
library).  ``harness`` and the leaf dirs (bench/, examples/, tests/)
may include anything.
"""

import os

from engine import Rule

# module -> allowed include top-level prefixes (relative to src/).
LAYERING = {
    "src/common": [],
    "src/core": ["common"],
    "src/audit": ["common", "core"],
    "src/obs": ["common", "core", "audit"],
    "src/tpch": ["common"],
    "src/storage": ["common", "core", "tpch"],
    # engine publishes dispatch counters into the obs metrics registry.
    "src/engine": ["common", "core", "storage", "tpch", "obs"],
    "src/engines": ["common", "core", "storage", "tpch", "engine",
                    "engines"],
    # The serving runtime sits above the engines and observability but
    # below the harness (it must stay embeddable without the CLI glue).
    "src/server": ["common", "core", "audit", "obs", "tpch", "storage",
                   "engine"],
    "src/harness": ["common", "core", "audit", "obs", "tpch", "storage",
                    "engine", "engines", "server", "harness"],
}


def _module_of(relpath):
    for m in LAYERING:
        if relpath.startswith(m + "/"):
            return m
    return None


def check_dag(ctx, rule, sf):
    module = _module_of(sf.relpath)
    if module is None:
        return
    allowed = LAYERING[module]
    own_prefix = module[len("src/"):]
    for inc in sf.model.includes:
        if inc.angled:
            continue
        top = inc.path.split("/")[0]
        if inc.path.startswith(own_prefix + "/") or top == own_prefix:
            continue
        if top not in allowed:
            ctx.report(rule, sf, inc.line,
                       f"{module} must not include \"{inc.path}\" "
                       f"(allowed: {', '.join(allowed) or 'nothing'})")


def _resolve_include(ctx, from_relpath, inc_path):
    """Repo-relative path of a quoted include, or None for system/not
    found.  The tree compiles with -I src/, so quoted includes resolve
    against src/ first, then the includer's own directory."""
    cand = "src/" + inc_path
    if cand in ctx.files:
        return cand
    sibling = os.path.normpath(
        os.path.join(os.path.dirname(from_relpath), inc_path)).replace(
            os.sep, "/")
    if sibling in ctx.files:
        return sibling
    if inc_path in ctx.files:
        return inc_path
    return None


def check_cycles(ctx, rule):
    """File-level include-graph cycle detection (DFS, three colours).
    Reports each cycle once, anchored at its lexicographically smallest
    file, with the full cycle spelled out."""
    graph = {}
    inc_lines = {}
    for relpath, sf in ctx.files.items():
        edges = []
        for inc in sf.model.includes:
            if inc.angled:
                continue
            target = _resolve_include(ctx, relpath, inc.path)
            if target is not None and target != relpath:
                edges.append(target)
                inc_lines[(relpath, target)] = inc.line
        graph[relpath] = edges

    WHITE, GREY, BLACK = 0, 1, 2
    colour = {node: WHITE for node in graph}
    seen_cycles = set()

    def visit(node, stack):
        colour[node] = GREY
        stack.append(node)
        for nxt in graph.get(node, ()):
            if colour.get(nxt, WHITE) == GREY:
                cycle = stack[stack.index(nxt):] + [nxt]
                anchor = min(cycle[:-1])
                key = tuple(sorted(set(cycle)))
                if key not in seen_cycles:
                    seen_cycles.add(key)
                    ai = cycle.index(anchor)
                    rotated = cycle[ai:-1] + cycle[:ai] + [anchor]
                    line = inc_lines.get((rotated[0], rotated[1]), 1)
                    ctx.report(rule, anchor, line,
                               "include cycle: " + " -> ".join(rotated))
            elif colour.get(nxt, WHITE) == WHITE:
                visit(nxt, stack)
        stack.pop()
        colour[node] = BLACK

    for node in sorted(graph):
        if colour[node] == WHITE:
            visit(node, [])


RULES = [
    Rule("LAY-DAG", "error", "layering",
         "module includes must follow the dependency DAG",
         check_dag),
    Rule("LAY-CYCLE", "error", "layering",
         "no cycles in the file-level include graph",
         check_cycles, scope="tree"),
]
