"""Contract rule family (CON-*).

The simulation contracts the compiler cannot enforce (DESIGN.md §5d),
promoted from the former line-regex lint onto the token/structure model:

  * region discipline — engine/bench code uses core::ScopedRegion, never
    raw ``PushRegion``/``PopRegion``; and wherever raw calls are legal
    (core internals, obs), every function body pushes exactly as often
    as it pops, so an early return cannot leave the region stack torn.
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
"""

import os
import re

from engine import Rule
from cpptok import KIND_IDENT, KIND_STRING

# Engine-level code: operator implementations and drivers that must go
# through the sanctioned RAII/charging APIs.
ENGINE_DIRS = ("src/engines", "src/storage", "src/server", "bench",
               "examples")
_SRC_DIRS = ("src",)
_NO_TESTONLY_DIRS = ("src", "bench", "examples")

# --- CON-REGION-RAW -------------------------------------------------------

_RAW_REGION_RE = re.compile(r"\b(?:PushRegion|PopRegion)\s*\(")


def check_region_raw(ctx, rule, sf):
    if not sf.in_dirs(ENGINE_DIRS):
        return
    for lineno, line in enumerate(sf.model.code_lines, 1):
        if _RAW_REGION_RE.search(line):
            ctx.report(rule, sf, lineno,
                       "raw PushRegion/PopRegion call site; only "
                       "core::ScopedRegion keeps the push/pop stream "
                       "LIFO under early returns")


# --- CON-REGION-PAIR ------------------------------------------------------

# The RAII wrapper and the primitives themselves are the sanctioned
# unbalanced bodies (ctor pushes, dtor pops); everything else in src/
# must balance within one function body.
_PAIR_EXEMPT_FN = re.compile(r"^~?(?:ScopedRegion|PushRegion|PopRegion)$")


def _count_calls(toks, start, end, name):
    count = 0
    for k in range(start, min(end, len(toks) - 1)):
        t = toks[k]
        if t.kind == KIND_IDENT and t.text == name and \
                toks[k + 1].text == "(":
            count += 1
    return count


def check_region_pair(ctx, rule, sf):
    if not sf.in_dirs(_SRC_DIRS):
        return
    toks = sf.model.tokens
    for fn in sf.model.functions:
        if _PAIR_EXEMPT_FN.match(fn.name):
            continue
        pushes = _count_calls(toks, fn.body_start, fn.body_end,
                              "PushRegion")
        pops = _count_calls(toks, fn.body_start, fn.body_end,
                            "PopRegion")
        if pushes != pops:
            ctx.report(rule, sf, fn.line,
                       f"{fn.name}: {pushes} PushRegion vs {pops} "
                       "PopRegion in one body; an unbalanced region "
                       "stack silently skews every enclosing "
                       "attribution node")


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
        close = _match_close(toks, k + 1)
        if close < 0:
            continue
        args = _call_args(toks, k + 1, close)
        index = _SIM_ADDR_CALLS[t.text]
        if index < len(args) and _host_pointer(args[index]):
            ctx.report(rule, sf, t.line,
                       f"host pointer passed to {t.text}(): the model "
                       "must see simulated addresses; charge the address "
                       "the structure was placed at (core::Placement)")


# --- CON-STATUS-DISCARD ---------------------------------------------------

# The dispatch surface reports errors by value: engine::OlapEngine::Run
# and engine::EngineRegistry::Get return common::StatusOr.  A call whose
# entire statement is the call itself drops the error channel on the
# floor — the `;` right after the closing paren means nobody can branch
# on ok() or unwrap the value.  Expression uses (`acc += bal.Get(i)`,
# `eng.Run(spec, w).value()`) are fine: the result feeds something.
_STATUS_METHODS = {"Run", "Get"}
# Idents that consume the value even though they precede the chain.
_STATUS_CONSUMERS = {"return", "co_return", "co_await", "throw"}
_CHAIN_PUNCT = {".", "->", "::"}


def _match_open(toks, close_idx):
    close = toks[close_idx].text
    want = "(" if close == ")" else "["
    depth = 0
    for k in range(close_idx, -1, -1):
        t = toks[k].text
        if t == close:
            depth += 1
        elif t == want:
            depth -= 1
            if depth == 0:
                return k
    return -1


def _match_close(toks, open_idx):
    depth = 0
    for k in range(open_idx, len(toks)):
        t = toks[k].text
        if t == "(":
            depth += 1
        elif t == ")":
            depth -= 1
            if depth == 0:
                return k
    return -1


def _begins_statement(toks, p):
    """True when the receiver chain ending at toks[p] opens a statement,
    i.e. nothing to the left can absorb the call's return value."""
    while p >= 0:
        t = toks[p]
        if t.kind == KIND_IDENT:
            if t.text in _STATUS_CONSUMERS:
                return False
            p -= 1
            continue
        if t.text in _CHAIN_PUNCT:
            p -= 1
            continue
        if t.text in (")", "]"):
            opener = _match_open(toks, p)
            if opener < 1:
                return False
            if t.text == ")" and toks[opener - 1].kind != KIND_IDENT:
                # Grouping or cast paren, not a chained call: the value
                # is being fed into an expression (or explicitly
                # void-cast, which is a deliberate annotation).
                return False
            p = opener - 1
            continue
        return t.text in (";", "{", "}")
    return True


def check_status_discard(ctx, rule, sf):
    if not sf.in_dirs(ENGINE_DIRS):
        return
    toks = sf.model.tokens
    for k, t in enumerate(toks):
        if t.kind != KIND_IDENT or t.text not in _STATUS_METHODS:
            continue
        if k == 0 or toks[k - 1].text not in (".", "->"):
            continue
        if k + 1 >= len(toks) or toks[k + 1].text != "(":
            continue
        close = _match_close(toks, k + 1)
        if close < 0 or close + 1 >= len(toks):
            continue
        if toks[close + 1].text != ";":
            continue
        if not _begins_statement(toks, k - 2):
            continue
        ctx.report(rule, sf, t.line,
                   f"discarded Status from {t.text}() on the dispatch "
                   "surface; consume the StatusOr by branching on ok() "
                   "or unwrapping with value()")


# --- CON-IO-CHECKED -------------------------------------------------------

# The crash-consistency story (DESIGN.md §10) lives or dies on checked
# I/O: a discarded fwrite/fflush/fsync/rename result on the persistence
# surface turns a full disk or a failed atomic-rename into silent
# corruption that the CRC framing can no longer tell apart from a torn
# tail.  Statement-level, like CON-STATUS-DISCARD: a call whose entire
# statement is the call itself drops the result.  Expression uses
# (`== 0`, `if (!...)`, assignments) are fine, `(void)` casts are a
# deliberate annotation, and flushing the stdout/stderr diagnostics
# streams is exempt — those never carry durable state.
_IO_SURFACE_STEMS = ("journal", "checkpoint", "file_io", "profile_export")
_IO_CALLS = {"WriteTextFile", "WriteFileAtomic", "AppendRecord",
             "fwrite", "fflush", "fsync", "rename", "ftruncate"}
_IO_DIAG_STREAMS = {"stdout", "stderr"}


def _on_io_surface(sf):
    if not sf.in_dirs(_SRC_DIRS) or not sf.relpath.endswith((".cc", ".cpp")):
        return False
    base = os.path.basename(sf.relpath)
    return any(stem in base for stem in _IO_SURFACE_STEMS)


def _io_begins_statement(toks, p):
    """Walks left over ``ns::`` / ``obj.`` / ``obj->`` qualifier chains;
    the receiver must open a statement for the result to be dropped.
    Unlike _begins_statement this refuses a bare identifier on the left,
    so a declaration (``Status WriteTextFile(...);``) never matches."""
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
        close = _match_close(toks, k + 1)
        if close < 0 or close + 1 >= len(toks):
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
    Rule("CON-REGION-RAW", "error", "contracts",
         "engine/bench code must use core::ScopedRegion, not raw "
         "Push/PopRegion", check_region_raw),
    Rule("CON-REGION-PAIR", "error", "contracts",
         "PushRegion/PopRegion balance within every function body",
         check_region_pair),
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
    Rule("CON-STATUS-DISCARD", "error", "contracts",
         "dispatch-surface Run/Get call sites must consume the Status "
         "channel", check_status_discard),
    Rule("CON-IO-CHECKED", "error", "contracts",
         "persistence-surface write/flush/rename results must be "
         "consumed", check_io_checked),
]
