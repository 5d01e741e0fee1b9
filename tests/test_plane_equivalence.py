"""Pinned MRBC/SBBC outputs: golden signatures, output digests, Brandes oracle.

MRBC and SBBC run on one execution tier, the columnar executors over
:class:`~repro.runtime.plane.GluonArrayPlane`.  Every case here is held
to two references:

- **the goldens** in ``tests/goldens/engine_goldens.json``: the full
  :meth:`~repro.engine.stats.EngineRun.deterministic_signature` (rounds,
  bytes, pair messages, items/proxies synced, load imbalance), the
  forward/backward round split, and blake2b digests of the ``dist``,
  ``sigma`` and ``bc`` bytes.  Bytes, not ``allclose``: the executors pin
  their float accumulation orders, so any reordering is a visible diff.
  Fault cases pin the same record, or the exception type when the run
  aborts (``detect`` mode stops at the first materialized fault);
- **the Brandes oracle** for every completed run: ``dist`` and ``sigma``
  exact per source, BC at ``rtol=1e-9``.

The graph suite spans the paper's three regimes (ER random, web-crawl
with long tails, grid road) plus RMAT, across host counts that exercise
single-host, uneven and full fan-out partitions; the fault suite runs
every default fault plan in ``repair`` and ``detect`` mode on ER and
web-crawl for both engines.

How the goldens were made: they were captured when the per-vertex dict
executors still ran beside the columnar ones.  Each case ran on both
tiers, the capture asserted that the two agreed on the signature and on
the output bytes (or raised the same exception), and recorded the
shared result.  The test names date from that two-tier period.
``PYTHONPATH=src python tests/test_plane_equivalence.py --write``
rewrites the file from the current tree; that is for a deliberate,
documented rebaseline (a change to the op model or to an accumulation
order), never for making a failing case pass.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.brandes import brandes_sssp, brandes_bc
from repro.baselines.sbbc import sbbc_engine
from repro.core.mrbc import mrbc_engine
from repro.graph.generators import from_spec
from repro.resilience.context import ResilienceContext
from repro.resilience.plan import DEFAULT_PLANS, FaultPlan, FaultSpec, get_plan

GOLDENS = Path(__file__).parent / "goldens" / "engine_goldens.json"

#: (graph spec, hosts, delayed_sync, batch) — MRBC axis.
MRBC_CASES = [
    ("er:60:3", 4, True, 8),
    ("er:60:3", 8, True, 4),
    ("er:60:3", 1, True, 8),
    ("er:60:3", 4, False, 8),
    ("er:200:4", 4, True, 8),
    ("grid:8:8", 8, True, 4),
    ("grid:8:8", 3, False, 5),
    ("webcrawl:120:80", 8, True, 8),
    ("rmat:8:8", 8, True, 8),
]

#: (graph spec, hosts) — SBBC axis.
SBBC_CASES = [
    ("er:60:3", 4),
    ("er:60:3", 8),
    ("er:60:3", 1),
    ("er:200:4", 8),
    ("grid:8:8", 3),
    ("webcrawl:120:80", 8),
    ("rmat:8:8", 8),
]

#: (algorithm, graph spec, default plan name, guard mode) — fault axis.
FAULT_CASES = [
    (algo, spec, kind, mode)
    for algo in ("mrbc", "sbbc")
    for spec in ("er:60:3", "webcrawl:120:80")
    for kind in sorted(DEFAULT_PLANS)
    for mode in ("repair", "detect")
]


def _crash_ctx() -> ResilienceContext:
    return ResilienceContext(
        plan=FaultPlan(
            name="crash1",
            seed=7,
            specs=(FaultSpec(kind="crash", host=1, round=3),),
        ),
        mode="repair",
    )


def _run_mrbc(spec, hosts, delayed, batch):
    g = from_spec(spec, seed=7)
    res = mrbc_engine(
        g,
        num_sources=min(24, g.num_vertices),
        batch_size=batch,
        num_hosts=hosts,
        delayed_sync=delayed,
        seed=7,
    )
    return g, res


def _run_sbbc(spec, hosts):
    g = from_spec(spec, seed=7)
    return g, sbbc_engine(
        g, sources=list(range(min(16, g.num_vertices))), num_hosts=hosts
    )


def _run_mrbc_crash():
    g = from_spec("er:60:3", seed=7)
    res = mrbc_engine(
        g, num_sources=8, batch_size=4, num_hosts=4, seed=7,
        resilience=_crash_ctx(),
    )
    return g, res


def _run_sbbc_crash():
    g = from_spec("er:60:3", seed=7)
    return g, sbbc_engine(
        g, sources=list(range(8)), num_hosts=4, resilience=_crash_ctx()
    )


def _run_fault(algo, spec, kind, mode):
    g = from_spec(spec, seed=7)
    ctx = ResilienceContext(plan=get_plan(kind), mode=mode)
    if algo == "mrbc":
        res = mrbc_engine(
            g, sources=list(range(12)), batch_size=4, num_hosts=4,
            resilience=ctx,
        )
    else:
        res = sbbc_engine(g, sources=list(range(6)), num_hosts=4, resilience=ctx)
    return g, res


def _key(*parts) -> str:
    return "/".join(str(p) for p in parts)


#: Golden key -> zero-argument runner returning ``(graph, result)``.
RUNNERS = {
    **{
        _key("mrbc", *c): (lambda c=c: _run_mrbc(*c)) for c in MRBC_CASES
    },
    **{
        _key("sbbc", *c): (lambda c=c: _run_sbbc(*c)) for c in SBBC_CASES
    },
    "mrbc/crash-restart": _run_mrbc_crash,
    "sbbc/crash-restart": _run_sbbc_crash,
    **{
        _key("fault", *c): (lambda c=c: _run_fault(*c)) for c in FAULT_CASES
    },
}


def _digest(a: np.ndarray) -> str:
    return hashlib.blake2b(a.tobytes(), digest_size=16).hexdigest()


def capture(key: str) -> dict:
    """Run one case and reduce it to its golden record."""
    try:
        _g, res = RUNNERS[key]()
    except Exception as err:  # the exception type is the record
        return {"raises": type(err).__name__}
    return {
        "signature": res.run.deterministic_signature(),
        "forward_rounds": int(res.forward_rounds),
        "backward_rounds": int(res.backward_rounds),
        "dist": _digest(res.dist),
        "sigma": _digest(res.sigma),
        "bc": _digest(res.bc),
    }


def _load_goldens() -> dict:
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


def _assert_matches_brandes(g, res) -> None:
    for i, s in enumerate(res.sources.tolist()):
        dist, sigma, _preds, _order = brandes_sssp(g, s)
        assert np.array_equal(res.dist[i], dist), f"dist row of source {s}"
        assert np.array_equal(res.sigma[i], sigma), f"sigma row of source {s}"
    np.testing.assert_allclose(
        res.bc, brandes_bc(g, sources=res.sources), rtol=1e-9, atol=0
    )


def _check(key: str) -> None:
    want = _load_goldens()[key]
    if "raises" in want:
        with pytest.raises(Exception) as exc:
            RUNNERS[key]()
        assert type(exc.value).__name__ == want["raises"]
        return
    g, res = RUNNERS[key]()
    assert res.run.deterministic_signature() == want["signature"]
    assert res.forward_rounds == want["forward_rounds"]
    assert res.backward_rounds == want["backward_rounds"]
    assert _digest(res.dist) == want["dist"]
    assert _digest(res.sigma) == want["sigma"]
    assert _digest(res.bc) == want["bc"]
    _assert_matches_brandes(g, res)


def test_goldens_cover_every_case():
    assert sorted(_load_goldens()) == sorted(RUNNERS)


@pytest.mark.parametrize("spec,hosts,delayed,batch", MRBC_CASES)
def test_mrbc_array_plane_is_bit_identical(spec, hosts, delayed, batch):
    _check(_key("mrbc", spec, hosts, delayed, batch))


@pytest.mark.parametrize("spec,hosts", SBBC_CASES)
def test_sbbc_array_plane_is_bit_identical(spec, hosts):
    _check(_key("sbbc", spec, hosts))


def test_mrbc_crash_restart_equivalence():
    """Under an injected crash every exchange routes through the guarded
    tuple substrate; restart accounting (recovery rounds, replayed work)
    stays pinned too."""
    _check("mrbc/crash-restart")


def test_sbbc_crash_restart_equivalence():
    _check("sbbc/crash-restart")


@pytest.mark.parametrize("algo,spec,kind,mode", FAULT_CASES)
def test_fault_outcome_matches_golden(algo, spec, kind, mode):
    _check(_key("fault", algo, spec, kind, mode))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    GOLDENS.parent.mkdir(exist_ok=True)
    doc = {key: capture(key) for key in sorted(RUNNERS)}
    GOLDENS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc)} golden record(s) to {GOLDENS}")
