"""The rule registry and the AST analyses behind each ``RLxxx`` code.

Rule families (stable codes — baselines and pragmas depend on them):

- ``RL1xx`` **determinism** — the engine's ``repro bench`` trajectory
  gates on :meth:`EngineRun.deterministic_signature`; these rules catch
  constructs that let iteration order, entropy, or wall clocks leak into
  message emission or σ/δ accumulation.
- ``RL2xx`` **CONGEST protocol & round-loop discipline** — the
  O(log n)-bits-per-edge-per-round budget, the simulator-owned handler
  contract, the Alg. 3 flat-map schedule ``r = d_sv + ℓ``, and the rule
  that driver round loops live in :mod:`repro.runtime` only.
- ``RL3xx`` **Gluon / delayed synchronization** — §4.3's rule that a
  proxy's finalized label may be read only after the reduce/broadcast
  that proves it final.
- ``RL4xx`` **observability / resilience hygiene** — engine entry points
  must expose ``resilience=``; sinks and spans must be closed; message
  emission and byte accounting must go through the ledger-recording
  MessagePlane entry points.

Every rule is a pure function of one module's AST plus the semantic
model (:mod:`repro.lint.model`); there is no cross-module inference.
Findings carry the enclosing symbol so baselines survive line drift.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.lint import model
from repro.lint.findings import SEVERITY_ERROR, SEVERITY_WARNING, Finding

# -- module analysis -----------------------------------------------------------


@dataclass
class FunctionScope:
    """One function body (nested defs excluded — they get their own scope)."""

    qualname: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef | Module (pseudo-scope)
    class_node: ast.ClassDef | None = None

    @property
    def name(self) -> str:
        return getattr(self.node, "name", "<module>")

    @property
    def params(self) -> list[str]:
        a = getattr(self.node, "args", None)
        if a is None:
            return []
        names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        if a.vararg:
            names.append(a.vararg.arg)
        if a.kwarg:
            names.append(a.kwarg.arg)
        return names

    def walk(self) -> Iterator[ast.AST]:
        """Every node in this scope, not descending into nested defs."""

        def rec(n: ast.AST) -> Iterator[ast.AST]:
            for child in ast.iter_child_nodes(n):
                if isinstance(
                    child,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                ):
                    continue
                yield child
                yield from rec(child)

        return rec(self.node)


class ModuleInfo:
    """Parsed module plus the derived tables every rule shares."""

    def __init__(self, path: str, relpath: str, source: str) -> None:
        self.path = path
        self.relpath = relpath.replace("\\", "/")
        self.source = source
        self.tree = ast.parse(source, filename=path)
        self._parents: dict[int, ast.AST] = {}
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                self._parents[id(child)] = node
        self.scopes: list[FunctionScope] = [
            FunctionScope(qualname="", node=self.tree)
        ]
        self._collect_scopes(self.tree, prefix="", class_node=None)
        self.vertex_program_classes = self._vertex_program_classes()

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(id(node))

    def _collect_scopes(
        self, node: ast.AST, prefix: str, class_node: ast.ClassDef | None
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qn = f"{prefix}{child.name}"
                self.scopes.append(
                    FunctionScope(qualname=qn, node=child, class_node=class_node)
                )
                self._collect_scopes(child, prefix=qn + ".", class_node=None)
            elif isinstance(child, ast.ClassDef):
                qn = f"{prefix}{child.name}"
                self._collect_scopes(child, prefix=qn + ".", class_node=child)
            else:
                self._collect_scopes(child, prefix=prefix, class_node=class_node)

    def _vertex_program_classes(self) -> set[str]:
        """Class names that (transitively, within this module) extend a
        CONGEST vertex-program base."""
        bases: dict[str, set[str]] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {
                    t for b in node.bases if (t := terminal_name(b)) is not None
                }
        marked: set[str] = set()
        changed = True
        while changed:
            changed = False
            for cls, bs in bases.items():
                if cls in marked:
                    continue
                if bs & model.VERTEX_PROGRAM_BASES or bs & marked:
                    marked.add(cls)
                    changed = True
        return marked


def terminal_name(node: ast.AST) -> str | None:
    """The last identifier of a dotted/called chain (``a.b.c()`` → ``c``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):
        return terminal_name(node.func)
    return None


def chain_root(node: ast.AST) -> ast.AST:
    """Unwrap ``a.b[x].c`` to its leftmost expression node."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node


def chain_has_program_subscript(node: ast.AST) -> bool:
    """Whether a chain reaches through ``programs[...]``."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Subscript):
            if terminal_name(node.value) in model.PROGRAM_COLLECTION_NAMES:
                return True
        node = node.value
    return False


# -- set-valuedness ------------------------------------------------------------


def set_valued_locals(scope: FunctionScope) -> set[str]:
    """Local names this scope binds to set-valued expressions (one pass)."""
    names: set[str] = set()
    for node in scope.walk():
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            tgt = node.targets[0]
            if isinstance(tgt, ast.Name) and describe_set_expr(node.value, names):
                names.add(tgt.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            ann = ast.dump(node.annotation)
            if "'set'" in ann or "'frozenset'" in ann or "'Set'" in ann:
                names.add(node.target.id)
    return names


def describe_set_expr(node: ast.AST, set_locals: set[str]) -> str | None:
    """A short description if ``node`` evaluates to an unordered set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set display"
    if isinstance(node, ast.Call):
        fn = node.func
        if isinstance(fn, ast.Name) and fn.id in ("set", "frozenset"):
            return f"{fn.id}(...)"
        if isinstance(fn, ast.Attribute):
            if fn.attr in model.SET_RETURNING_METHODS:
                return f".{fn.attr}(...)"
            # mapping-to-sets access: preds.get(s, ...)
            if (
                fn.attr == "get"
                and terminal_name(fn.value) in model.SET_MAPPING_ATTRS
            ):
                return f"{terminal_name(fn.value)}.get(...)"
        return None
    if isinstance(node, ast.Attribute) and node.attr in model.SET_VALUED_ATTRS:
        return f".{node.attr}"
    if isinstance(node, ast.Subscript):
        base = terminal_name(node.value)
        if base in model.SET_MAPPING_ATTRS:
            return f"{base}[...]"
        return None
    if isinstance(node, ast.Name) and node.id in set_locals:
        return f"'{node.id}' (set-valued local)"
    return None


# -- emission-scope classification ---------------------------------------------


def emission_scope_reason(scope: FunctionScope) -> str | None:
    """Why this scope is order-sensitive, or None.

    A scope is *message-emitting* when iteration order inside it can leak
    into what crosses the network or into a float accumulation: CONGEST
    send handlers, functions that drive a Gluon sync or open engine
    rounds, functions that stage items into per-host reduce/broadcast
    buffers, and functions that fold into σ/δ/BC accumulators.
    """
    if scope.name == "compute_sends":
        return "a CONGEST send handler"
    for node in scope.walk():
        if isinstance(node, ast.Call):
            t = terminal_name(node.func)
            if t in model.SYNC_PRIMITIVES or t in model.ROUND_OPENERS:
                return f"calls {t}()"
            if (
                t in ("append", "extend")
                and isinstance(node.func, ast.Attribute)
                and (recv := terminal_name(node.func.value)) is not None
                and model.EMISSION_BUFFER_RE.search(recv)
            ):
                return f"stages messages into '{recv}'"
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            t = terminal_name(node.target)
            if t is not None and model.ACCUMULATOR_RE.search(t):
                return f"accumulates into '{t}'"
    return None


# -- the registry --------------------------------------------------------------


@dataclass
class Rule:
    code: str
    name: str
    severity: str
    summary: str
    #: Callable (rule, ModuleInfo) -> Iterable[Finding].
    check: object = field(repr=False, default=None)

    def finding(
        self, mod: ModuleInfo, node: ast.AST, message: str, symbol: str = ""
    ) -> Finding:
        return Finding(
            code=self.code,
            severity=self.severity,
            path=mod.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            symbol=symbol,
        )


RULES: dict[str, Rule] = {}


def register(code: str, name: str, severity: str, summary: str):
    def deco(fn):
        RULES[code] = Rule(
            code=code, name=name, severity=severity, summary=summary, check=fn
        )
        return fn

    return deco


def run_rules(mod: ModuleInfo, enabled: Iterable[str] | None = None) -> list[Finding]:
    """Run (a subset of) the registry over one module."""
    out: list[Finding] = []
    for code in sorted(RULES):
        if enabled is not None and code not in enabled:
            continue
        rule = RULES[code]
        out.extend(rule.check(rule, mod))
    return out


# -- RL1xx: determinism --------------------------------------------------------


@register(
    "RL101",
    "set-iteration-in-emission",
    SEVERITY_ERROR,
    "unordered set iteration inside a message-emitting or accumulating "
    "scope — wrap the iterable in sorted()",
)
def _rl101(rule: Rule, mod: ModuleInfo) -> Iterator[Finding]:
    for scope in mod.scopes:
        reason = emission_scope_reason(scope)
        if reason is None:
            continue
        set_locals = set_valued_locals(scope)
        for node in scope.walk():
            iters: list[ast.AST] = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iters.extend(g.iter for g in node.generators)
            elif (
                isinstance(node, ast.Call)
                and terminal_name(node.func) in model.ORDER_PRESERVING_CONSUMERS
                and node.args
            ):
                iters.append(node.args[0])
            for it in iters:
                desc = describe_set_expr(it, set_locals)
                if desc is not None:
                    yield rule.finding(
                        mod,
                        it,
                        f"iteration over unordered set {desc} in "
                        f"'{scope.qualname}' ({reason}); set order can leak "
                        "into message emission/accumulation order — iterate "
                        "sorted(...) instead",
                        symbol=scope.qualname,
                    )


@register(
    "RL102",
    "unseeded-randomness",
    SEVERITY_ERROR,
    "global/unseeded RNG reachable from engine code — use "
    "repro.utils.prng.make_rng(seed)",
)
def _rl102(rule: Rule, mod: ModuleInfo) -> Iterator[Finding]:
    if model.is_test_path(mod.relpath):
        return
    for scope in mod.scopes:
        for node in scope.walk():
            if not isinstance(node, ast.Call) or not isinstance(
                node.func, ast.Attribute
            ):
                continue
            fn = node.func
            base = terminal_name(fn.value)
            if base == "random" and isinstance(
                chain_root(fn.value), ast.Name
            ):
                # random.<fn>() module-level API, or np.random.<fn>().
                if fn.attr in model.SEEDED_RNG_FACTORIES:
                    if node.args or node.keywords:
                        continue
                    what = f"{fn.attr}() without a seed"
                else:
                    what = f"random.{fn.attr}()"
                yield rule.finding(
                    mod,
                    node,
                    f"{what} draws from global/OS entropy; runs become "
                    "unreproducible and EngineRun.deterministic_signature "
                    "can drift — derive a Generator via "
                    "repro.utils.prng.make_rng(seed)",
                    symbol=scope.qualname,
                )


@register(
    "RL103",
    "wall-clock-in-deterministic-path",
    SEVERITY_ERROR,
    "wall-clock read outside the telemetry/analysis layers — simulated "
    "time must come from ClusterModel",
)
def _rl103(rule: Rule, mod: ModuleInfo) -> Iterator[Finding]:
    if model.is_test_path(mod.relpath) or model.path_matches(
        mod.relpath, model.CLOCK_EXEMPT_PARTS
    ):
        return
    for scope in mod.scopes:
        for node in scope.walk():
            if not isinstance(node, ast.Call) or not isinstance(
                node.func, ast.Attribute
            ):
                continue
            pair = (terminal_name(node.func.value), node.func.attr)
            if pair in model.CLOCK_CALLS:
                yield rule.finding(
                    mod,
                    node,
                    f"{pair[0]}.{pair[1]}() reads the wall clock in a "
                    "deterministic engine path; timings belong to the obs "
                    "layer, simulated time to repro.cluster.model",
                    symbol=scope.qualname,
                )


# -- RL2xx: CONGEST protocol ---------------------------------------------------


@register(
    "RL201",
    "unbounded-congest-payload",
    SEVERITY_ERROR,
    "CONGEST payload carries a container — each message is limited to "
    "O(log n) bits per edge per round",
)
def _rl201(rule: Rule, mod: ModuleInfo) -> Iterator[Finding]:
    for scope in mod.scopes:
        if (
            scope.class_node is None
            or scope.class_node.name not in mod.vertex_program_classes
            or scope.name != "compute_sends"
        ):
            continue
        for node in scope.walk():
            if not isinstance(node, ast.Tuple):
                continue
            for elt in node.elts:
                bad = None
                if isinstance(
                    elt,
                    (
                        ast.List,
                        ast.Set,
                        ast.Dict,
                        ast.ListComp,
                        ast.SetComp,
                        ast.DictComp,
                        ast.GeneratorExp,
                    ),
                ):
                    bad = "a container display"
                elif isinstance(elt, ast.Call) and terminal_name(elt.func) in (
                    "list",
                    "set",
                    "dict",
                ):
                    bad = f"{terminal_name(elt.func)}(...)"
                if bad is not None:
                    yield rule.finding(
                        mod,
                        elt,
                        f"CONGEST payload element is {bad}: one message may "
                        "carry only O(log n) bits (a constant number of "
                        "words) per round — send per-value messages across "
                        "rounds instead",
                        symbol=scope.qualname,
                    )


@register(
    "RL202",
    "direct-program-state-mutation",
    SEVERITY_ERROR,
    "vertex state mutated without a message — all cross-vertex effects "
    "must travel through CongestNetwork channels",
)
def _rl202(rule: Rule, mod: ModuleInfo) -> Iterator[Finding]:
    if model.path_matches(mod.relpath, model.CONGEST_NETWORK_PARTS):
        return  # the simulator itself owns handler invocation
    for scope in mod.scopes:
        # (a) invoking simulator-owned hooks through programs[...]
        for node in scope.walk():
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in model.CONGEST_HANDLER_METHODS
                and chain_has_program_subscript(node.func.value)
            ):
                yield rule.finding(
                    mod,
                    node,
                    f"direct call of {node.func.attr}() on another vertex's "
                    "program bypasses channel delivery, round accounting, "
                    "and the resilience guard — send a message through "
                    "CongestNetwork instead",
                    symbol=scope.qualname,
                )
            # stores through programs[...]
            targets: list[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for tgt in targets:
                if isinstance(
                    tgt, (ast.Attribute, ast.Subscript)
                ) and chain_has_program_subscript(tgt):
                    yield rule.finding(
                        mod,
                        tgt,
                        "assignment into another vertex's program state "
                        "bypasses the CONGEST message model — only the "
                        "owning vertex may mutate its state, via "
                        "handle_message",
                        symbol=scope.qualname,
                    )
        # (b) vertex-program methods writing through foreign parameters
        if (
            scope.class_node is not None
            and scope.class_node.name in mod.vertex_program_classes
        ):
            foreign = {p for p in scope.params if p != "self"}
            for node in scope.walk():
                targets = []
                if isinstance(node, ast.Assign):
                    targets = list(node.targets)
                elif isinstance(node, ast.AugAssign):
                    targets = [node.target]
                for tgt in targets:
                    if not isinstance(tgt, (ast.Attribute, ast.Subscript)):
                        continue
                    root = chain_root(tgt)
                    if isinstance(root, ast.Name) and root.id in foreign:
                        yield rule.finding(
                            mod,
                            tgt,
                            f"vertex program writes through parameter "
                            f"'{root.id}' — state it does not own; "
                            "cross-vertex effects must be messages",
                            symbol=scope.qualname,
                        )


def _add_chain_leaves(node: ast.AST) -> list[ast.AST]:
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _add_chain_leaves(node.left) + _add_chain_leaves(node.right)
    return [node]


@register(
    "RL203",
    "flatmap-schedule-deviation",
    SEVERITY_ERROR,
    "fire-round arithmetic deviates from Alg. 3's r = d + position + 1 "
    "flat-map schedule",
)
def _rl203(rule: Rule, mod: ModuleInfo) -> Iterator[Finding]:
    for scope in mod.scopes:
        for node in scope.walk():
            if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
                continue
            parent = mod.parent(node)
            if (
                isinstance(parent, ast.BinOp)
                and isinstance(parent.op, ast.Add)
            ):
                continue  # only maximal + chains
            leaves = _add_chain_leaves(node)
            names: set[str] = set()
            const = 0
            opaque = False
            for leaf in leaves:
                if isinstance(leaf, ast.Constant):
                    if isinstance(leaf.value, int) and not isinstance(
                        leaf.value, bool
                    ):
                        const += leaf.value
                    else:
                        opaque = True
                elif isinstance(leaf, (ast.Name, ast.Attribute)):
                    t = terminal_name(leaf)
                    if t is not None:
                        names.add(t)
                else:
                    opaque = True
            if opaque:
                continue
            if not (
                names & model.SCHEDULE_POSITION_NAMES
                and names & model.SCHEDULE_DISTANCE_NAMES
            ):
                continue
            if const != model.SCHEDULE_CONSTANT:
                yield rule.finding(
                    mod,
                    node,
                    f"fire-round expression 'distance + position + "
                    f"{const}' deviates from the flat-map schedule "
                    "r = d + position + 1 (Alg. 3; checked at runtime as "
                    "the timestamp_schedule invariant) — a late or early "
                    "fire breaks Lemma 2's stable-prefix argument",
                    symbol=scope.qualname,
                )


def _loop_descendants(loop: ast.AST) -> Iterator[ast.AST]:
    """Every node under ``loop``, not descending into nested defs."""
    for child in ast.iter_child_nodes(loop):
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        yield child
        yield from _loop_descendants(child)


@register(
    "RL204",
    "driver-bypasses-superstep-runtime",
    SEVERITY_ERROR,
    "hand-rolled round loop outside repro.runtime — drivers must execute "
    "rounds through SuperstepRuntime.run_loop",
)
def _rl204(rule: Rule, mod: ModuleInfo) -> Iterator[Finding]:
    if model.is_test_path(mod.relpath) or model.path_matches(
        mod.relpath, model.ROUND_LOOP_EXEMPT_PARTS
    ):
        return
    for scope in mod.scopes:
        in_vertex_program = (
            scope.class_node is not None
            and scope.class_node.name in mod.vertex_program_classes
        )
        for node in scope.walk():
            if not isinstance(node, (ast.While, ast.For)):
                continue
            # Report only the outermost qualifying loop: a parent loop in
            # this scope contains everything this one does.
            anc = mod.parent(node)
            nested = False
            while anc is not None and anc is not scope.node:
                if isinstance(anc, (ast.While, ast.For)):
                    nested = True
                    break
                anc = mod.parent(anc)
            if nested:
                continue
            for inner in _loop_descendants(node):
                if not isinstance(inner, ast.Call):
                    continue
                t = terminal_name(inner.func)
                if t in model.ROUND_OPENERS:
                    what = f"{t}()"
                elif t == "compute_sends" and not in_vertex_program:
                    # A vertex program may delegate to a sub-program's
                    # compute_sends; outside one, invoking the handler in
                    # a loop is a hand-rolled CONGEST round driver.
                    what = "compute_sends()"
                else:
                    continue
                yield rule.finding(
                    mod,
                    node,
                    f"loop in '{scope.qualname}' drives rounds by hand "
                    f"(calls {what}); round loops live in "
                    "SuperstepRuntime — pass a step callback to "
                    "runtime.run_loop(...) so termination, round "
                    "accounting, and recovery policies stay in one place",
                    symbol=scope.qualname,
                )
                break


# -- RL3xx: Gluon / delayed synchronization ------------------------------------


@register(
    "RL301",
    "proxy-read-before-sync",
    SEVERITY_ERROR,
    "finalized proxy label read before any reduce/broadcast in the "
    "function — §4.3: labels are valid only after the sync that proves "
    "them final",
)
def _rl301(rule: Rule, mod: ModuleInfo) -> Iterator[Finding]:
    if model.is_test_path(mod.relpath):
        return
    for scope in mod.scopes:
        if scope.name in ("__init__", "<module>"):
            continue  # allocation/initialization scope
        sync_lines = [
            node.lineno
            for node in scope.walk()
            if isinstance(node, ast.Call)
            and terminal_name(node.func) in model.SYNC_PRIMITIVES
        ]
        first_sync = min(sync_lines) if sync_lines else None
        for node in scope.walk():
            if (
                not isinstance(node, ast.Attribute)
                or node.attr not in model.PROXY_FINAL_FIELDS
            ):
                continue
            if isinstance(node.ctx, (ast.Store, ast.Del)):
                continue  # direct (re)binding
            parent = mod.parent(node)
            if isinstance(parent, ast.Subscript) and isinstance(
                parent.ctx, (ast.Store, ast.Del)
            ):
                continue  # delivery write: st.fin_dist[...] = value
            if first_sync is not None and node.lineno >= first_sync:
                continue
            where = (
                "before the first reduce/broadcast"
                if first_sync is not None
                else "in a function that never synchronizes"
            )
            yield rule.finding(
                mod,
                node,
                f"read of finalized proxy label '.{node.attr}' {where}: "
                "under delayed synchronization the value may be "
                "provisional until reduce_to_masters/"
                "broadcast_from_masters has run (§4.3)",
                symbol=scope.qualname,
            )


# -- RL4xx: observability / resilience hygiene ---------------------------------


@register(
    "RL401",
    "entry-point-missing-resilience",
    SEVERITY_WARNING,
    "engine entry point does not accept resilience= — fault injection "
    "and recovery cannot reach this driver",
)
def _rl401(rule: Rule, mod: ModuleInfo) -> Iterator[Finding]:
    if model.is_test_path(mod.relpath):
        return
    for scope in mod.scopes:
        if not isinstance(scope.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if scope.class_node is not None or scope.name.startswith("_"):
            continue
        if not model.ENGINE_ENTRY_RE.match(scope.name):
            continue
        if model.RESILIENCE_PARAM not in scope.params:
            yield rule.finding(
                mod,
                scope.node,
                f"engine entry point '{scope.name}' has no "
                f"'{model.RESILIENCE_PARAM}=' parameter; every driver must "
                "plumb the ResilienceContext into its message plane so "
                "fault plans and invariant checks can attach",
                symbol=scope.qualname,
            )


@register(
    "RL402",
    "span-or-sink-leak",
    SEVERITY_WARNING,
    "telemetry sink constructed without close/with/session ownership, or "
    "span opened outside a with block",
)
def _rl402(rule: Rule, mod: ModuleInfo) -> Iterator[Finding]:
    if model.path_matches(mod.relpath, model.OBS_IMPL_PARTS):
        return  # the implementation layer manages its own lifecycles
    for scope in mod.scopes:
        with_names: set[str] = set()
        with_call_ids: set[int] = set()
        closed_names: set[str] = set()
        transferred: set[str] = set()
        escaped: set[str] = set()
        for node in scope.walk():
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    ce = item.context_expr
                    with_call_ids.add(id(ce))
                    if isinstance(ce, ast.Name):
                        with_names.add(ce.id)
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "close"
                    and isinstance(node.func.value, ast.Name)
                ):
                    closed_names.add(node.func.value.id)
                if terminal_name(node.func) in model.SINK_OWNERSHIP_TRANSFERS:
                    for arg in list(node.args) + [k.value for k in node.keywords]:
                        if isinstance(arg, ast.Name):
                            transferred.add(arg.id)
                        with_call_ids.add(id(arg))
            elif isinstance(node, ast.Return) and isinstance(
                node.value, ast.Name
            ):
                escaped.add(node.value.id)
            elif isinstance(node, ast.Assign):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Attribute) and isinstance(
                        node.value, ast.Name
                    ):
                        escaped.add(node.value.id)  # self.sink = sink

        for node in scope.walk():
            if not isinstance(node, ast.Call):
                continue
            t = terminal_name(node.func)
            if t in model.SINK_CONSTRUCTORS:
                if id(node) in with_call_ids:
                    continue
                parent = mod.parent(node)
                bound: str | None = None
                if isinstance(parent, ast.Assign) and all(
                    isinstance(x, ast.Name) for x in parent.targets
                ):
                    bound = parent.targets[0].id
                elif isinstance(parent, ast.withitem):
                    continue
                if bound is not None and (
                    bound in with_names
                    or bound in closed_names
                    or bound in transferred
                    or bound in escaped
                ):
                    continue
                yield rule.finding(
                    mod,
                    node,
                    f"{t}(...) is never closed in '{scope.qualname}': use "
                    "'with', call .close(), or hand it to obs.session(...) "
                    "— an unflushed sink drops buffered telemetry events",
                    symbol=scope.qualname,
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in model.SPAN_OPENERS
                and isinstance(node.func.value, (ast.Name, ast.Attribute))
            ):
                parent = mod.parent(node)
                if isinstance(parent, ast.withitem) or id(node) in with_call_ids:
                    continue
                if isinstance(parent, (ast.Expr, ast.Assign)):
                    yield rule.finding(
                        mod,
                        node,
                        f".{node.func.attr}(...) opens a span context "
                        "manager but is not entered with 'with' — the span "
                        "never closes and its subtree is orphaned in the "
                        "trace",
                        symbol=scope.qualname,
                    )


@register(
    "RL403",
    "ledger-bypassing-emission",
    SEVERITY_ERROR,
    "message emission or byte accounting bypasses the ledger-recording "
    "MessagePlane entry points — CommLedger totals would drift from "
    "RoundStats/MessageStats",
)
def _rl403(rule: Rule, mod: ModuleInfo) -> Iterator[Finding]:
    if model.is_test_path(mod.relpath) or model.path_matches(
        mod.relpath, model.LEDGER_ENTRY_PARTS
    ):
        return  # the accounting chokepoints themselves
    for scope in mod.scopes:
        for node in scope.walk():
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                t = node.func.attr
                if (
                    t in model.SYNC_PRIMITIVES
                    and terminal_name(node.func.value)
                    in model.SUBSTRATE_RECEIVER_NAMES
                ):
                    recv = terminal_name(node.func.value)
                    yield rule.finding(
                        mod,
                        node,
                        f"{t}() invoked on raw substrate '{recv}' — drivers "
                        "must synchronize through the MessagePlane so the "
                        "comm ledger records every pair message; reaching "
                        "under the plane desynchronizes ledger and "
                        "RoundStats accounting",
                        symbol=scope.qualname,
                    )
                elif t in model.CHANNEL_RECORDERS:
                    yield rule.finding(
                        mod,
                        node,
                        f"{t}() called outside the CONGEST message plane: a "
                        "MessageStats record with no matching CommLedger "
                        "record breaks the ledger-vs-stats reconciliation "
                        "that 'repro comm --check' enforces",
                        symbol=scope.qualname,
                    )
            targets: list[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            for tgt in targets:
                if (
                    isinstance(tgt, ast.Subscript)
                    and isinstance(tgt.value, ast.Attribute)
                    and tgt.value.attr in model.BYTE_ACCOUNT_FIELDS
                ):
                    yield rule.finding(
                        mod,
                        tgt,
                        f"direct write to '.{tgt.value.attr}[...]' charges "
                        "wire bytes the comm ledger never sees — byte "
                        "accounting belongs to the MessagePlane entry "
                        "points (GluonSubstrate.account_column_pairs, "
                        "CongestPlane.exchange_round, retransmit charging)",
                        symbol=scope.qualname,
                    )


def _caught_exception_names(node: ast.AST | None) -> frozenset[str]:
    """Class names a handler's ``except <type>`` clause catches."""
    if node is None:
        return frozenset()
    if isinstance(node, ast.Tuple):
        out: set[str] = set()
        for elt in node.elts:
            out |= _caught_exception_names(elt)
        return frozenset(out)
    t = terminal_name(node)
    return frozenset() if t is None else frozenset({t})


@register(
    "RL404",
    "swallowed-resilience-error",
    SEVERITY_ERROR,
    "resilience error caught and swallowed — neither re-raised nor "
    "routed into the recovery machinery, so an injected fault would "
    "vanish silently and the run would continue on corrupt state",
)
def _rl404(rule: Rule, mod: ModuleInfo) -> Iterator[Finding]:
    if model.is_test_path(mod.relpath) or model.path_matches(
        mod.relpath, model.RESILIENCE_HANDLER_EXEMPT_PARTS
    ):
        return  # the recovery machinery / verdict glue terminates errors
    for scope in mod.scopes:
        for node in scope.walk():
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = _caught_exception_names(node.type)
            hit = sorted(caught & model.RESILIENCE_ERROR_NAMES)
            if not hit:
                continue
            routed = False
            for inner in ast.walk(node):
                if isinstance(inner, ast.Raise):
                    routed = True
                    break
                if (
                    isinstance(inner, ast.Call)
                    and terminal_name(inner.func)
                    in model.RESILIENCE_ROUTING_NAMES
                ):
                    routed = True
                    break
            if routed:
                continue
            yield rule.finding(
                mod,
                node,
                f"handler catches {', '.join(hit)} but neither re-raises "
                "nor routes it into the recovery machinery "
                f"({'/'.join(sorted(model.RESILIENCE_ROUTING_NAMES))}); "
                "swallowing a resilience error hides an injected fault "
                "and lets the run continue on unrecovered state",
                symbol=scope.qualname or "<module>",
            )


@register(
    "RL405",
    "shadow-round-accounting",
    SEVERITY_WARNING,
    "driver maintains an ad-hoc round counter or frontier tally — state "
    "the superstep runtime and the round ledger already own; a shadow "
    "count drifts under recovery rounds, crash replays, or early "
    "termination",
)
def _rl405(rule: Rule, mod: ModuleInfo) -> Iterator[Finding]:
    if model.is_test_path(mod.relpath) or model.path_matches(
        mod.relpath, model.ROUND_STATE_EXEMPT_PARTS
    ):
        return  # the runtime/ledger/stats layers own these counts
    for scope in mod.scopes:
        for node in scope.walk():
            if not isinstance(node, ast.AugAssign) or not isinstance(
                node.op, ast.Add
            ):
                continue
            name = terminal_name(node.target)
            if name is None:
                continue
            by_one = (
                isinstance(node.value, ast.Constant) and node.value.value == 1
            )
            if by_one and model.ROUND_COUNTER_RE.search(name):
                yield rule.finding(
                    mod,
                    node,
                    f"'{name} += 1' is an ad-hoc round counter — the "
                    "superstep runtime counts rounds (run_loop returns "
                    "the count; EngineRun.num_rounds and the RoundLedger "
                    "persist it); a shadow tally drifts when recovery "
                    "rounds or crash replays change the loop shape",
                    symbol=scope.qualname or "<module>",
                )
            elif model.FRONTIER_TALLY_RE.search(name):
                yield rule.finding(
                    mod,
                    node,
                    f"augmented addition on '{name}' accumulates a "
                    "frontier/settlement tally — per-round algorithm "
                    "state the round ledger owns; report it via "
                    "RoundLedger.note(frontier=..., settled=...) and "
                    "read it back from UnitRounds/RoundState",
                    symbol=scope.qualname or "<module>",
                )
