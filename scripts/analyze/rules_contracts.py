"""Contract rule family (CON-*).

The simulation contracts the compiler cannot enforce (DESIGN.md §5e),
promoted from the former line-regex lint onto the token/structure model.
Two contracts the compiler does enforce are not here: every Status and
StatusOr is [[nodiscard]] under -Werror=unused-result, and Core's region
primitives are private to core::ScopedRegion.

  * metric names — every name constant in src/obs/metric_names.h obeys
    the grammar and is unique; publish call sites use the constants,
    never inline string literals.
  * test-only hooks — ``TestOnly*`` members are never *called* outside
    tests/, and a ``TestOnly``-prefixed symbol is never referenced from
    a src/ translation unit other than the one that declares it.
  * structure — include guards, own-header-first, no file-scope
    using-directives in headers, and the storage discipline (charge
    through the Core/ColumnView API, not raw ``memory()``).
  * simulated addresses — engine code charges the addresses its
    structures were placed at (core::Placement), never host pointers.
  * checked I/O — the persistence surface consumes every libc write,
    flush, sync and rename result.
"""

import os
import re

from engine import Rule
from cpptok import KIND_IDENT, KIND_STRING, match_forward

# Engine-level code: operator implementations and drivers that must go
# through the sanctioned RAII/charging APIs.
ENGINE_DIRS = ("src/engines", "src/storage", "src/server", "bench",
               "examples")
_SRC_DIRS = ("src",)
_NO_TESTONLY_DIRS = ("src", "bench", "examples")

# --- CON-METRIC-NAME ------------------------------------------------------

METRIC_HEADER = "src/obs/metric_names.h"
_METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")
# Spans line breaks: `inline constexpr char kFoo[] =\n    "a.b";`
_METRIC_CONST_RE = re.compile(
    r"constexpr\s+char\s+(k\w+)\[\]\s*=\s*\"([^\"]*)\"")
_PUBLISH_METHODS = {"Count", "Observe", "SetGauge", "MaxGauge"}


def check_metric_names(ctx, rule, sf):
    if sf.relpath == METRIC_HEADER:
        seen = {}
        for m in _METRIC_CONST_RE.finditer(sf.source):
            lineno = sf.source.count("\n", 0, m.start()) + 1
            name = m.group(2)
            if not _METRIC_NAME_RE.match(name):
                ctx.report(rule, sf, lineno,
                           f'"{name}" violates the metric name grammar '
                           f"{_METRIC_NAME_RE.pattern}")
            if name in seen:
                ctx.report(rule, sf, lineno,
                           f'"{name}" already registered on line '
                           f"{seen[name]}")
            seen[name] = lineno
        return
    if not sf.in_dirs(_SRC_DIRS):
        return
    # Publish call with an inline string literal as the name argument
    # (token-based, so a literal on a continuation line still counts).
    toks = sf.model.tokens
    for k, t in enumerate(toks[:-2]):
        if t.kind != KIND_IDENT or t.text not in _PUBLISH_METHODS:
            continue
        prev = toks[k - 1].text if k > 0 else ""
        if prev not in (".", "->"):
            continue
        if toks[k + 1].text == "(" and toks[k + 2].kind == KIND_STRING:
            ctx.report(rule, sf, t.line,
                       "metric published with an inline string "
                       "literal; names must come from "
                       "obs/metric_names.h so the registry namespace "
                       "stays centrally auditable")


# --- CON-TESTONLY ---------------------------------------------------------

_TESTONLY_CALL_RE = re.compile(r"(?:\.|->)\s*TestOnly\w*\s*\(")


def check_testonly_call(ctx, rule, sf):
    if not sf.in_dirs(_NO_TESTONLY_DIRS):
        return
    for lineno, line in enumerate(sf.model.code_lines, 1):
        if _TESTONLY_CALL_RE.search(line):
            ctx.report(rule, sf, lineno,
                       "TestOnly* hook called outside tests/; these "
                       "bypass the invariants the normal mutation "
                       "paths maintain")


# --- CON-TESTONLY-REF (tree) ----------------------------------------------

def check_testonly_ref(ctx, rule):
    """A ``TestOnly``-prefixed symbol may appear in the header that
    declares it (and that header's own .cc); any other src/ file
    referencing the name is production code depending on a test hook."""
    declared_in = {}  # symbol -> set of headers mentioning it
    for relpath, sf in ctx.files.items():
        if not relpath.startswith("src/") or not relpath.endswith(".h"):
            continue
        for t in sf.model.tokens:
            if t.kind == KIND_IDENT and t.text.startswith("TestOnly"):
                declared_in.setdefault(t.text, set()).add(relpath)
    for relpath, sf in ctx.files.items():
        if not relpath.startswith("src/") or relpath.endswith(".h"):
            continue
        own_header = re.sub(r"\.(cc|cpp)$", ".h", relpath)
        for t in sf.model.tokens:
            if t.kind != KIND_IDENT or not t.text.startswith("TestOnly"):
                continue
            homes = declared_in.get(t.text, set())
            if own_header in homes:
                continue  # implementing its own declared hook
            ctx.report(rule, sf, t.line,
                       f"{t.text} referenced from {relpath}, but it is "
                       f"declared in {', '.join(sorted(homes)) or 'no header'};"
                       " test hooks must stay confined to their own TU "
                       "and tests/")


# --- CON-GUARD ------------------------------------------------------------

def _guard_name(relpath):
    p = relpath[4:] if relpath.startswith("src/") else relpath
    return "UOLAP_" + re.sub(r"[/.]", "_", p).upper() + "_"


def check_guard(ctx, rule, sf):
    if not sf.in_dirs(_SRC_DIRS) or not sf.is_header:
        return
    want = _guard_name(sf.relpath)
    for lineno, line in enumerate(sf.model.code_lines, 1):
        if line.startswith("#ifndef "):
            got = line.split()[1] if len(line.split()) > 1 else "<none>"
            if got != want:
                ctx.report(rule, sf, lineno,
                           f"include guard is {got}, want {want}")
            return
    ctx.report(rule, sf, 1, f"no include guard; want #ifndef {want}")


# --- CON-USING-NS ---------------------------------------------------------

_USING_NS_RE = re.compile(r"^\s*using\s+namespace\b")


def check_using_ns(ctx, rule, sf):
    if not sf.in_dirs(_SRC_DIRS) or not sf.is_header:
        return
    for lineno, line in enumerate(sf.model.code_lines, 1):
        if _USING_NS_RE.match(line):
            ctx.report(rule, sf, lineno,
                       "file-scope using-directive in a header leaks "
                       "into every includer")


# --- CON-INCLUDE-ORDER ----------------------------------------------------

def check_include_order(ctx, rule, sf):
    """foo.cc includes its own foo.h first — catches headers that
    silently depend on prior includes."""
    if not sf.relpath.endswith((".cc", ".cpp")):
        return
    own = re.sub(r"\.(cc|cpp)$", ".h", sf.relpath)
    own_inc = own[4:] if own.startswith("src/") else own
    if not os.path.exists(os.path.join(ctx.root, "src", own_inc)):
        return
    for inc in sf.model.includes:
        if inc.angled:
            continue
        if inc.path != own_inc:
            ctx.report(rule, sf, inc.line,
                       f'first project include must be "{own_inc}"')
        return


# --- CON-STORAGE ----------------------------------------------------------

_STORAGE_RE = re.compile(
    r"(?:\.|->)\s*memory\s*\(\s*\)|\bmutable_counters\s*\(")


def check_storage(ctx, rule, sf):
    if not sf.in_dirs(ENGINE_DIRS):
        return
    for lineno, line in enumerate(sf.model.code_lines, 1):
        if _STORAGE_RE.search(line):
            ctx.report(rule, sf, lineno,
                       "reaching into core.memory()/mutable_counters() "
                       "bypasses the instruction-mix accounting; charge "
                       "through the Core/ColumnView API")


# --- CON-SIM-ADDR ---------------------------------------------------------

# The cache/TLB model must see simulated addresses (DESIGN.md §5e): a host
# pointer handed to Core or to memory() makes counters depend on ASLR and
# malloc history.  Engine-side code only — bench/ and examples/ drive the
# model with synthetic addresses on purpose.  A call is flagged when its
# address argument takes an address (`&x`), a container's `.data()` or a
# smart pointer's `.get()`, or reinterpret_casts one.
_SIM_ADDR_DIRS = ("src/engines", "src/engine", "src/storage")
# Access method -> index of its address argument.
_SIM_ADDR_CALLS = {"Load": 0, "Store": 0, "LoadSeq": 0, "StoreSeq": 0,
                   "LoadRange": 1, "StoreRange": 1, "AccessData": 0}


def _call_args(toks, open_idx, close_idx):
    """Token slices of the top-level arguments of a call."""
    args, start, depth = [], open_idx + 1, 0
    for k in range(open_idx + 1, close_idx):
        t = toks[k].text
        if t in ("(", "[", "{"):
            depth += 1
        elif t in (")", "]", "}"):
            depth -= 1
        elif t == "," and depth == 0:
            args.append(toks[start:k])
            start = k + 1
    args.append(toks[start:close_idx])
    return args


def _host_pointer(arg):
    texts = [t.text for t in arg]
    if not texts:
        return False
    if texts[0] == "&" or "reinterpret_cast" in texts:
        return True
    for k in range(len(texts) - 3):
        if texts[k] in (".", "->") and texts[k + 1] in ("data", "get") \
                and texts[k + 2] == "(" and texts[k + 3] == ")":
            return True
    return False


def check_sim_addr(ctx, rule, sf):
    if not sf.in_dirs(_SIM_ADDR_DIRS):
        return
    toks = sf.model.tokens
    for k, t in enumerate(toks):
        if t.kind != KIND_IDENT or t.text not in _SIM_ADDR_CALLS:
            continue
        if k == 0 or toks[k - 1].text not in (".", "->"):
            continue
        if k + 1 >= len(toks) or toks[k + 1].text != "(":
            continue
        close = match_forward(toks, k + 1, "(", ")")
        if close >= len(toks):
            continue
        args = _call_args(toks, k + 1, close)
        index = _SIM_ADDR_CALLS[t.text]
        if index < len(args) and _host_pointer(args[index]):
            ctx.report(rule, sf, t.line,
                       f"host pointer passed to {t.text}(): the model "
                       "must see simulated addresses; charge the address "
                       "the structure was placed at (core::Placement)")


# --- CON-IO-CHECKED -------------------------------------------------------

# The crash-consistency story (DESIGN.md §10) lives or dies on checked
# I/O: a discarded fwrite/fflush/fsync/rename result on the persistence
# surface turns a full disk or a failed atomic-rename into silent
# corruption that the CRC framing can no longer tell apart from a torn
# tail.  The project's own write helpers return Status, which the
# compiler checks; the libc calls below are covered by no type.
# Statement-level: a call whose entire statement is the call itself
# drops the result.  Expression uses (`== 0`, `if (!...)`, assignments)
# are fine, `(void)` casts are a deliberate annotation, and flushing the
# stdout/stderr diagnostics streams is exempt — those never carry
# durable state.
_IO_SURFACE_STEMS = ("journal", "checkpoint", "file_io", "profile_export")
_IO_CALLS = {"fwrite", "fflush", "fsync", "rename", "ftruncate"}
_IO_DIAG_STREAMS = {"stdout", "stderr"}


def _on_io_surface(sf):
    if not sf.in_dirs(_SRC_DIRS) or not sf.relpath.endswith((".cc", ".cpp")):
        return False
    base = os.path.basename(sf.relpath)
    return any(stem in base for stem in _IO_SURFACE_STEMS)


def _io_begins_statement(toks, p):
    """Walks left over ``ns::`` / ``obj.`` / ``obj->`` qualifier chains;
    the receiver must open a statement for the result to be dropped.
    A bare identifier on the left is refused, so a declaration
    (``int rename(...);``) never matches."""
    while p >= 0:
        t = toks[p]
        if t.text in ("::", ".", "->"):
            p -= 1
            if p >= 0 and toks[p].kind == KIND_IDENT:
                p -= 1
                continue
            return False
        return t.text in (";", "{", "}")
    return True


def check_io_checked(ctx, rule, sf):
    if not _on_io_surface(sf):
        return
    toks = sf.model.tokens
    for k, t in enumerate(toks):
        if t.kind != KIND_IDENT or t.text not in _IO_CALLS:
            continue
        if k + 1 >= len(toks) or toks[k + 1].text != "(":
            continue
        close = match_forward(toks, k + 1, "(", ")")
        if close + 1 >= len(toks):
            continue
        if toks[close + 1].text != ";":
            continue
        if t.text == "fflush" and k + 2 < len(toks) and \
                toks[k + 2].text in _IO_DIAG_STREAMS:
            continue
        if not _io_begins_statement(toks, k - 1):
            continue
        ctx.report(rule, sf, t.line,
                   f"discarded {t.text}() result on the persistence "
                   "surface; a failed write/flush/rename must surface as "
                   "a Status, not as silent corruption at recovery time")


RULES = [
    Rule("CON-METRIC-NAME", "error", "contracts",
         "metric name grammar, uniqueness, and central registration",
         check_metric_names),
    Rule("CON-TESTONLY", "error", "contracts",
         "TestOnly* hooks may only be called from tests/",
         check_testonly_call),
    Rule("CON-TESTONLY-REF", "error", "contracts",
         "TestOnly symbols referenced only from their own TU and tests/",
         check_testonly_ref, scope="tree"),
    Rule("CON-GUARD", "error", "contracts",
         "headers use #ifndef UOLAP_<PATH>_H_ guards", check_guard),
    Rule("CON-USING-NS", "error", "contracts",
         "no file-scope using-directives in headers", check_using_ns),
    Rule("CON-INCLUDE-ORDER", "warning", "contracts",
         "a .cc includes its own header first", check_include_order),
    Rule("CON-STORAGE", "error", "contracts",
         "charge memory through Core/ColumnView, not raw MemorySystem",
         check_storage),
    Rule("CON-SIM-ADDR", "error", "contracts",
         "engine code charges simulated addresses, never host pointers",
         check_sim_addr),
    Rule("CON-IO-CHECKED", "error", "contracts",
         "persistence-surface write/flush/rename results must be "
         "consumed", check_io_checked),
]
