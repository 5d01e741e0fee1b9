"""Whole-program analysis: call graph, effect propagation, RL5xx/RL6xx.

This is the interprocedural layer on top of the per-module effect
summaries (:mod:`repro.lint.effects`).  It builds a :class:`Program` —
a function table plus a resolved call graph over every analyzed module
— and uses reachability over that graph for the checks a per-file AST
pass cannot express:

- **RL503** (vectorization-readiness): every writer of per-source state
  must be reachable from a driver entry point, a CONGEST vertex-program
  handler, a runtime seam, or a step closure handed to one.  An orphan
  writer is a mutation path the columnar ``GluonPlane`` of ROADMAP
  item 1 would not know to marshal.
- **RL601** (parallel-safety): module-level mutable state mutated inside
  the *round cone* — the functions reachable from step closures, vertex
  handlers, and ``CongestPlane.exchange_round`` — races the moment
  ROADMAP item 2 swaps the in-process host loop for real workers.
- the **interprocedural RL404 refinement**: a lexically-swallowed
  resilience error is rescinded when the handler body calls a helper
  that transitively re-raises or routes into the recovery machinery.

The same graph feeds the per-driver **vectorization-readiness report**
(:func:`readiness_report`) and the ``repro lint --effects`` explain mode
(:func:`explain_effects`), both keyed by the call chains behind each
verdict.

Call resolution is deliberately over-approximate (imports, same-module
names, unique-or-polymorphic method names, constructor calls, and the
implicit enclosing-function → nested-def edge): for reachability-based
rules, extra edges mean *fewer* false positives.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.lint import model
from repro.lint.effects import (
    CallSite,
    FunctionEffects,
    ModuleEffects,
    infer_effects,
)
from repro.lint.findings import SEVERITY_ERROR, Finding
from repro.lint.rules import ModuleInfo, Rule, register, run_rules

#: Method names too generic to resolve by name across classes (dict/list
#: protocol and similar) — resolving ``x.get()`` to every ``get`` in the
#: program would connect everything to everything.  They still resolve
#: when the receiver is ``self`` and the caller's own class defines them.
_GENERIC_METHODS = (
    model.MUTATING_METHODS
    | model.ALIAS_SAFE_CALLS
    | {
        "get",
        "items",
        "keys",
        "values",
        "tolist",
        "close",
        "join",
        "split",
        "format",
        "read_text",
        "write_text",
        "exists",
        "is_file",
    }
)


@dataclass
class Program:
    """The function table and resolved call graph of one analysis run."""

    modules: dict[str, ModuleEffects] = field(default_factory=dict)
    #: "relpath::qualname" -> (ModuleEffects, FunctionEffects)
    functions: dict[str, tuple[ModuleEffects, FunctionEffects]] = field(
        default_factory=dict
    )
    edges: dict[str, set[str]] = field(default_factory=dict)
    redges: dict[str, set[str]] = field(default_factory=dict)
    _method_index: dict[str, list[str]] = field(default_factory=dict)
    _class_init: dict[str, list[str]] = field(default_factory=dict)
    _module_by_dotted: dict[str, str] = field(default_factory=dict)

    # -- construction ----------------------------------------------------------

    @classmethod
    def build(cls, modules: dict[str, ModuleEffects]) -> "Program":
        prog = cls(modules=dict(modules))
        for rel, me in modules.items():
            if me.module:
                prog._module_by_dotted[me.module] = rel
            for qual, fe in me.functions.items():
                key = f"{rel}::{qual}"
                prog.functions[key] = (me, fe)
                parts = qual.split(".")
                if len(parts) == 2 and parts[0] in me.classes:
                    prog._method_index.setdefault(parts[1], []).append(key)
                    if parts[1] == "__init__":
                        prog._class_init.setdefault(parts[0], []).append(key)
        for key, (me, fe) in prog.functions.items():
            out: set[str] = set()
            for nd in fe.nested_defs:  # definition edge: enclosing -> nested
                nk = f"{me.relpath}::{nd}"
                if nk in prog.functions:
                    out.add(nk)
            for call in fe.calls:
                out.update(prog._resolve(me, fe, call))
            # Seam edge: a closure handed to a runtime seam call runs on
            # this function's behalf — the driver's cone must include it.
            for cq in fe.seam_closures:
                ck = f"{me.relpath}::{cq}"
                if ck in prog.functions:
                    out.add(ck)
            out.discard(key)
            prog.edges[key] = out
            for tgt in out:
                prog.redges.setdefault(tgt, set()).add(key)
        return prog

    def _resolve_dotted(self, dotted: str) -> list[str]:
        """Resolve an absolute dotted name to function keys."""
        parts = dotted.split(".")
        for i in range(len(parts) - 1, 0, -1):
            rel = self._module_by_dotted.get(".".join(parts[:i]))
            if rel is None:
                continue
            me = self.modules[rel]
            rest = parts[i:]
            key = f"{rel}::{'.'.join(rest)}"
            if key in self.functions:
                return [key]
            if len(rest) == 1 and rest[0] in me.classes:
                return list(self._class_init.get(rest[0], ()))
            return []
        return []

    def _resolve(self, me: ModuleEffects, fe: FunctionEffects, call: CallSite) -> list[str]:
        parts = [p for p in call.chain.split(".") if p]
        if not parts or parts[-1] == "()":
            return []
        term = parts[-1]
        rel = me.relpath

        if len(parts) == 1:
            name = parts[0]
            key = f"{rel}::{name}"
            if key in self.functions:
                return [key]
            if name in me.imports:
                return self._resolve_dotted(me.imports[name])
            if name in me.classes:
                return list(self._class_init.get(name, ()))
            # a visible nested def of an enclosing scope
            anc = fe.qualname
            while "." in anc:
                anc = anc.rsplit(".", 1)[0]
                nk = f"{rel}::{anc}.{name}"
                if nk in self.functions:
                    return [nk]
            if name in self._class_init:
                return list(self._class_init[name])
            return []

        # self.<method>: the caller's own class first
        if parts[0] == "self" and len(parts) == 2 and fe.class_name:
            own = f"{rel}::{fe.class_name}.{term}"
            if own in self.functions:
                return [own]

        # module-attribute call through an import: pkg.func(...)
        if parts[0] in me.imports:
            hit = self._resolve_dotted(
                ".".join([me.imports[parts[0]], *parts[1:]])
            )
            if hit:
                return hit

        if term in me.classes:
            return list(self._class_init.get(term, ()))
        if term in _GENERIC_METHODS:
            return []
        # polymorphic fallback: every class defining this method name
        return list(self._method_index.get(term, ()))

    # -- graph queries ---------------------------------------------------------

    def cone(self, roots: Iterable[str]) -> set[str]:
        """Roots plus everything transitively callable from them."""
        seen: set[str] = set()
        dq = deque(r for r in roots if r in self.functions)
        seen.update(dq)
        while dq:
            cur = dq.popleft()
            for nxt in self.edges.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    dq.append(nxt)
        return seen

    def chain(self, src: str, dst: str) -> list[str]:
        """Shortest call path ``src → ... → dst`` (inclusive), or []."""
        if src == dst:
            return [src]
        prev: dict[str, str] = {src: src}
        dq = deque([src])
        while dq:
            cur = dq.popleft()
            for nxt in self.edges.get(cur, ()):
                if nxt in prev:
                    continue
                prev[nxt] = cur
                if nxt == dst:
                    path = [dst]
                    while path[-1] != src:
                        path.append(prev[path[-1]])
                    return list(reversed(path))
                dq.append(nxt)
        return []

    def drivers(self) -> list[tuple[str, str]]:
        """``(key, kind)`` of every driver entry point in the program."""
        out: list[tuple[str, str]] = []
        for key, (_me, fe) in self.functions.items():
            if "." in fe.qualname or fe.qualname.startswith("_"):
                continue  # entry points are public module-level functions
            if model.ENGINE_ENTRY_RE.match(fe.qualname):
                out.append((key, "gluon"))
            elif fe.qualname in model.CONGEST_DRIVER_NAMES:
                out.append((key, "congest"))
        return sorted(out)

    def handler_methods(self) -> set[str]:
        """Vertex-program handler methods (simulator-invoked roots)."""
        out: set[str] = set()
        for rel, me in self.modules.items():
            for cls in me.vertex_programs:
                for m in model.CONGEST_HANDLER_METHODS:
                    key = f"{rel}::{cls}.{m}"
                    if key in self.functions:
                        out.add(key)
        return out

    def seam_closures(self) -> set[str]:
        """Step/prepare/body closures handed to a runtime seam call."""
        out: set[str] = set()
        for _key, (me, fe) in self.functions.items():
            for cq in fe.seam_closures:
                ck = f"{me.relpath}::{cq}"
                if ck in self.functions:
                    out.add(ck)
        return out

    def round_roots(self) -> set[str]:
        """Code the runtime executes *inside* rounds: seam closures,
        vertex handlers, and the CONGEST exchange chokepoint."""
        roots = self.seam_closures() | self.handler_methods()
        for key, (_me, fe) in self.functions.items():
            if fe.qualname.split(".")[-1] == "exchange_round":
                roots.add(key)
        return roots

    def seam_roots(self) -> set[str]:
        """Every sanctioned execution root: drivers, round roots, and the
        runtime implementation itself."""
        roots = {key for key, _kind in self.drivers()}
        roots |= self.round_roots()
        for key, (me, _fe) in self.functions.items():
            if model.path_matches(me.relpath, model.RUNTIME_IMPL_PARTS):
                roots.add(key)
        return roots

    def transitively_raising(self) -> set[str]:
        """Functions that raise or route a fault, directly or via a callee."""
        flagged = {
            key
            for key, (_me, fe) in self.functions.items()
            if fe.raises or fe.routes
        }
        dq = deque(flagged)
        while dq:
            cur = dq.popleft()
            for caller in self.redges.get(cur, ()):
                if caller not in flagged:
                    flagged.add(caller)
                    dq.append(caller)
        return flagged

    def find(self, name: str) -> list[str]:
        """Keys whose qualname matches ``name`` (exact, suffix, or leaf)."""
        exact = [
            k for k, (_m, fe) in self.functions.items() if fe.qualname == name
        ]
        if exact:
            return sorted(exact)
        return sorted(
            k
            for k, (_m, fe) in self.functions.items()
            if fe.qualname.endswith("." + name)
            or fe.qualname.split(".")[-1] == name
        )


# -- program-scope rules -------------------------------------------------------


def run_program_rules(
    program: Program, enabled: Iterable[str] | None = None
) -> list[Finding]:
    """Run every ``scope="program"`` rule in the registry."""
    from repro.lint.rules import RULES

    out: list[Finding] = []
    for code in sorted(RULES):
        rule = RULES[code]
        if rule.scope != "program":
            continue
        if enabled is not None and code not in enabled:
            continue
        out.extend(rule.check(rule, program))
    return out


def _finding(
    rule: Rule, me: ModuleEffects, line: int, message: str, symbol: str, chain: str = ""
) -> Finding:
    return Finding(
        code=rule.code,
        severity=rule.severity,
        path=me.relpath,
        line=line,
        col=1,
        message=message,
        symbol=symbol,
        chain=chain,
    )


def _short_chain(program: Program, path: list[str]) -> str:
    return " -> ".join(program.functions[k][1].qualname for k in path)


@register(
    "RL503",
    "off-seam-state-write",
    SEVERITY_ERROR,
    "per-source state written by a function unreachable from any driver, "
    "vertex-program handler, or runtime seam — a mutation path the "
    "vectorized plane would not marshal",
    scope="program",
)
def _rl503(rule: Rule, program: Program) -> Iterator[Finding]:
    reachable = program.cone(program.seam_roots())
    for key, (me, fe) in sorted(program.functions.items()):
        if not fe.state_writes or key in reachable:
            continue
        if model.is_test_path(me.relpath) or not model.path_matches(
            me.relpath, model.STATE_MODULE_PARTS
        ):
            continue
        attrs = sorted({a for a, _ln in fe.state_writes})
        line = min(ln for _a, ln in fe.state_writes)
        yield _finding(
            rule,
            me,
            line,
            f"'{fe.qualname}' writes per-source state "
            f"({', '.join('.' + a for a in attrs)}) but is reachable from "
            "no driver entry point, vertex-program handler, or runtime "
            "seam — an off-seam mutation path the columnar GluonPlane "
            "refactor (ROADMAP item 1) cannot see; route it through the "
            "plane API or delete it",
            symbol=fe.qualname,
        )


@register(
    "RL601",
    "global-mutation-in-round-cone",
    SEVERITY_ERROR,
    "module-level mutable state mutated by code reachable from the round "
    "loop — races under a real multi-worker backend",
    scope="program",
)
def _rl601(rule: Rule, program: Program) -> Iterator[Finding]:
    roots = program.round_roots()
    cone = program.cone(roots)
    for key in sorted(cone):
        me, fe = program.functions[key]
        if not fe.global_mutations or model.is_test_path(me.relpath):
            continue
        root_path: list[str] = []
        for r in sorted(roots):
            root_path = program.chain(r, key)
            if root_path:
                break
        chain = _short_chain(program, root_path)
        for name, how, line in fe.global_mutations:
            yield _finding(
                rule,
                me,
                line,
                f"'{fe.qualname}' mutates module-level '{name}' ({how}) and "
                "runs inside the round loop"
                + (f" (via {chain})" if chain else "")
                + " — per-process module state desynchronizes the moment "
                "the backend runs hosts in separate workers (ROADMAP "
                "item 2); thread it through host/runtime state instead",
                symbol=fe.qualname,
                chain=chain,
            )


# -- interprocedural RL404 refinement ------------------------------------------


def refine_findings(program: Program, findings: list[Finding]) -> list[Finding]:
    """Rescind lexical RL404 findings whose handler calls a helper that
    transitively re-raises or routes into the recovery machinery."""
    if not any(f.code == "RL404" for f in findings):
        return findings
    raising = program.transitively_raising()
    out: list[Finding] = []
    for f in findings:
        if f.code == "RL404" and _handler_routes_via_helper(program, f, raising):
            continue
        out.append(f)
    return out


def _handler_routes_via_helper(
    program: Program, finding: Finding, raising: set[str]
) -> bool:
    me = program.modules.get(finding.path)
    if me is None:
        return False
    fe = me.functions.get(finding.symbol)
    handlers = fe.handlers if fe is not None else []
    for handler in handlers:
        if handler.line != finding.line:
            continue
        for called in handler.calls:
            site = CallSite(chain=called, line=handler.line)
            if fe is not None:
                site = CallSite(chain=called, line=handler.line)
            for key in program._resolve(me, fe, site):
                if key in raising:
                    return True
    return False


# -- readiness report ----------------------------------------------------------


def readiness_report(program: Program, findings: list[Finding]) -> dict:
    """Per-driver ready/blocked verdicts for the two refactors.

    A driver is *vectorization-ready* when no active RL5xx finding lies
    in its call cone, and *parallel-safe* when no active RL6xx finding
    does.  This is the precondition gate for ROADMAP items 1 and 2.
    """
    by_key: dict[str, list[Finding]] = {}
    for f in findings:
        if f.symbol and (f.code.startswith("RL5") or f.code.startswith("RL6")):
            by_key.setdefault(f"{f.path}::{f.symbol}", []).append(f)

    report: dict[str, dict] = {}
    for key, kind in program.drivers():
        me, fe = program.functions[key]
        cone = program.cone([key])
        rl5: list[dict] = []
        rl6: list[dict] = []
        for fk in sorted(cone):
            for f in by_key.get(fk, ()):
                entry = dict(f.to_dict())
                entry["chain"] = _short_chain(program, program.chain(key, fk))
                (rl5 if f.code.startswith("RL5") else rl6).append(entry)
        report[fe.qualname] = {
            "path": me.relpath,
            "kind": kind,
            "cone_size": len(cone),
            "vectorization": {
                "verdict": "ready" if not rl5 else "blocked",
                "blockers": rl5,
            },
            "parallel_safety": {
                "verdict": "ready" if not rl6 else "blocked",
                "blockers": rl6,
            },
        }
    return {"drivers": report}


def render_readiness(report: dict, stream) -> None:
    """Text table for ``repro lint --readiness``."""
    drivers = report.get("drivers", {})
    if not drivers:
        print("readiness: no driver entry points in the analyzed set", file=stream)
        return
    width = max(len(n) for n in drivers)
    print("vectorization-readiness report (gate for ROADMAP items 1-2):", file=stream)
    for name in sorted(drivers):
        entry = drivers[name]
        vec = entry["vectorization"]
        par = entry["parallel_safety"]
        print(
            f"  {name:<{width}}  [{entry['kind']:<7}] "
            f"vectorize: {vec['verdict']:<7} "
            f"parallel: {par['verdict']:<7} "
            f"(cone: {entry['cone_size']} fns)",
            file=stream,
        )
        for blocker in vec["blockers"] + par["blockers"]:
            print(
                f"      blocked by {blocker['code']} at "
                f"{blocker['path']}:{blocker['line']}"
                + (f"  via {blocker['chain']}" if blocker.get("chain") else ""),
                file=stream,
            )


# -- explain mode --------------------------------------------------------------


def explain_effects(
    program: Program, name: str, findings: list[Finding] | None = None
) -> str | None:
    """The ``repro lint --effects <function>`` report: the inferred
    summary, the call neighborhood, and the finding chains through it."""
    keys = program.find(name)
    if not keys:
        return None
    lines: list[str] = []
    for key in keys:
        me, fe = program.functions[key]
        cone = program.cone([key])
        lines.append(f"{fe.qualname}  ({me.relpath}:{fe.line})")
        if fe.class_name:
            lines.append(f"  class:      {fe.class_name}")
        lines.append(
            "  purity:     "
            + ("pure (locally side-effect-free)" if fe.pure else "effectful")
        )
        reads = sorted({a for a, _ in fe.state_reads})
        writes = sorted({a for a, _ in fe.state_writes})
        if reads:
            lines.append(f"  state reads:  {', '.join('.' + a for a in reads)}")
        if writes:
            lines.append(f"  state writes: {', '.join('.' + a for a in writes)}")
        if fe.global_mutations:
            lines.append(
                "  global mutations: "
                + ", ".join(f"{n} ({how})" for n, how, _ in fe.global_mutations)
            )
        if fe.telemetry_writes:
            lines.append(
                "  telemetry writes: "
                + ", ".join(c for c, _ in fe.telemetry_writes)
            )
        if fe.sync_lines:
            lines.append(
                f"  synchronizes: {len(fe.sync_lines)} reduce/broadcast call(s)"
            )
        if fe.raises or fe.routes:
            how = [w for w, on in (("raises", fe.raises), ("routes", fe.routes)) if on]
            lines.append(f"  resilience:  {' + '.join(how)}")
        callees = sorted(
            program.functions[k][1].qualname for k in program.edges.get(key, ())
        )
        callers = sorted(
            program.functions[k][1].qualname for k in program.redges.get(key, ())
        )
        if callees:
            lines.append(f"  calls:       {', '.join(callees)}")
        if callers:
            lines.append(f"  called by:   {', '.join(callers)}")
        # transitive rollup over the cone
        t_writes: set[str] = set()
        t_globals: set[str] = set()
        t_sync = 0
        for k in cone:
            cfe = program.functions[k][1]
            t_writes.update(a for a, _ in cfe.state_writes)
            t_globals.update(n for n, _h, _l in cfe.global_mutations)
            t_sync += len(cfe.sync_lines)
        lines.append(
            f"  transitive ({len(cone)} fns): "
            f"writes {{{', '.join('.' + a for a in sorted(t_writes)) or '-'}}}, "
            f"globals {{{', '.join(sorted(t_globals)) or '-'}}}, "
            f"{t_sync} sync site(s)"
        )
        for f in findings or []:
            fk = f"{f.path}::{f.symbol}"
            if fk in cone:
                path = program.chain(key, fk)
                lines.append(
                    f"  finding {f.code} at {f.location()}"
                    + (f"  via {_short_chain(program, path)}" if path else "")
                )
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


# -- in-memory analysis (tests, fixtures) --------------------------------------

_DRIVER_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def analyze_sources(
    sources: dict[str, str], enabled: set[str] | None = None
) -> tuple[list[Finding], Program]:
    """Analyze an in-memory ``{relpath: source}`` program: module rules,
    program rules, and the RL404 refinement — no filesystem involved.

    The fixture entry point for the dataflow layer's own tests.
    """
    findings: list[Finding] = []
    effects: dict[str, ModuleEffects] = {}
    for relpath in sorted(sources):
        mod = ModuleInfo(path=relpath, relpath=relpath, source=sources[relpath])
        findings.extend(run_rules(mod, enabled=enabled))
        effects[relpath] = infer_effects(mod)
    program = Program.build(effects)
    findings.extend(run_program_rules(program, enabled=enabled))
    findings = refine_findings(program, findings)
    return findings, program
