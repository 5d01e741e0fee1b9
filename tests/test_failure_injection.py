"""Failure-injection tests: the implementation must *detect* protocol
violations, not silently produce wrong answers.

The CONGEST model assumes reliable synchronous channels; the MRBC
implementation leans on that through runtime assertions (prefix-stable
send schedules, no late dependency deliveries, no σ updates after a fire).
These tests inject faults — dropped messages, corrupted payloads, broken
schedules — and assert that the library fails loudly (assertion/exception)
or that validation catches the corruption, rather than returning bad BC
values as if nothing happened.

Message loss is injected through the first-class fault-plan hook on
:class:`CongestNetwork` (``resilience=``) rather than by monkey-patching
delivery; see :mod:`repro.resilience` and tests/test_resilience.py for
the detect/repair behaviors of the guard itself.
"""

import numpy as np
import pytest

from repro.baselines.brandes import brandes_bc
from repro.congest.network import CongestNetwork
from repro.core.apsp import APSPVertexState, DirectedAPSPProgram
from repro.core.mrbc_congest import mrbc_congest
from repro.resilience import FaultPlan, FaultSpec, ResilienceContext
from tests.conftest import MasterRig, some_sources


class TestMessageLoss:
    def test_lossy_forward_phase_is_detected(self, er_graph):
        """With dropped messages the pipelining invariants break: either a
        runtime assertion fires (missed send / prefix violation) or the
        computed distances disagree with the reference — never a silent
        pass.  The guard runs in ``off`` mode: faults are injected but not
        repaired, so the *algorithm's own* defenses must catch them."""
        g = er_graph
        srcs = frozenset(some_sources(g, 5))
        plan = FaultPlan(
            name="lossy-forward",
            seed=1,
            specs=(FaultSpec(kind="drop", rate=0.3),),
        )
        ctx = ResilienceContext(plan=plan, mode="off", invariants="off")
        detected = False
        try:
            net = CongestNetwork(
                g,
                lambda v: DirectedAPSPProgram(sources=srcs),
                resilience=ctx,
            )
            net.run(2 * g.num_vertices, detect_quiescence=True)
            # If no assertion fired, validation must catch the corruption.
            from repro.graph.properties import bfs_distances

            for s in sorted(srcs):
                ref = bfs_distances(g, s)
                for v, prog in enumerate(net.programs):
                    got = prog.state.dist.get(s)  # type: ignore[attr-defined]
                    want = int(ref[v])
                    if (got if got is not None else -1) != want:
                        detected = True
        except AssertionError:
            detected = True
        assert ctx.faults_injected > 0, "fault plan never fired"
        assert detected, "message loss went completely unnoticed"


class TestStateMachineGuards:
    def test_insertion_below_sent_prefix_asserts(self):
        """Simulates an out-of-order delivery that the Lemma 2 argument
        forbids: inserting a shorter distance after the entry was sent."""
        st = APSPVertexState()
        st.initialize_source(0)
        st.sent_prefix = 1  # pretend (0, 0) was sent
        st.receive(0, 5, 1.0, u=9)  # fine: lands above the prefix
        st.sent_prefix = 2  # pretend (1, 5) was sent too
        with pytest.raises(AssertionError):
            # A shorter path for source 5 arriving now would have to
            # replace an already-sent entry.
            st.receive(-1, 5, 1.0, u=8)

    def test_missed_send_round_asserts(self):
        st = APSPVertexState()
        st.initialize_source(3)
        # Round 1 is the due round; asking at round 2 without having sent
        # means the schedule was violated.
        with pytest.raises(AssertionError):
            st.next_send(2)

    def test_master_sigma_update_after_fire_asserts(self):
        """σ contributions must all arrive before the fire round; a late
        same-distance contribution trips the guard."""
        rig = MasterRig(batch=[0])
        rig.contribute(5, 0, host=1, d=1, sigma=1.0)
        rig.fire(1)
        assert rig.fire(2) == [(5, 0, 1, 1.0)]
        with pytest.raises(AssertionError, match="sigma update after fire"):
            rig.contribute(5, 0, host=2, d=1, sigma=2.0)

    def test_master_missed_fire_asserts(self):
        rig = MasterRig(batch=[0])
        rig.contribute(5, 0, host=1, d=1, sigma=1.0)  # due round 2
        rig.fire(1)
        with pytest.raises(AssertionError, match="missed fire"):
            rig.fire(3)


class TestCorruptionDetection:
    def test_sanity_digest_flags_corrupted_bc(self, er_graph):
        from repro.analysis.sanity import bc_digest

        good = brandes_bc(er_graph)
        res = mrbc_congest(er_graph)
        corrupted = res.bc.copy()
        corrupted[3] += 1.0
        assert bc_digest(res.bc).matches(bc_digest(good))
        assert not bc_digest(corrupted).matches(bc_digest(good))

    def test_structural_checks_flag_sign_flip(self, er_graph):
        from repro.analysis.sanity import structural_checks

        bc = brandes_bc(er_graph)
        bad = bc.copy()
        nz = np.nonzero(bad)[0]
        bad[nz[0]] = -bad[nz[0]]
        assert structural_checks(er_graph, bad)
