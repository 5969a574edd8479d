"""Partitioned vs monolithic transition relation: mode equivalence.

The partitioned relation (clustered conjuncts, early quantification in
``image``/``preimage``) and the eagerly-conjoined monolithic relation
are two layouts of the *same* transition function — every observable
artifact must be identical under either mode. These tests sweep the
equivalence corpus with the mode forced both ways, compare serialized
state spaces byte-for-byte across modes, and pin that verdicts survive
a forced variable reorder mid-analysis.
"""

import pytest

from repro.engine import cross_check, explore
from repro.engine.ctl import Verdict, check
from repro.engine.symbolic import symbolic_reachable

from tests.engine.test_symbolic_equivalence import CORPUS

MODES = ("partitioned", "monolithic")


class TestCorpusBothModes:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    @pytest.mark.parametrize("mode", MODES)
    def test_mode_agrees_with_explicit(self, name, mode):
        """Each mode independently matches the explicit engine on the
        full corpus (graph keys, transitions, serialized space)."""
        model = CORPUS[name]()
        report = cross_check(model, max_states=10_000, relation_mode=mode)
        assert report["mismatches"] == [], (name, mode)

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_modes_serialize_identically(self, name):
        """The two layouts produce byte-identical serialized spaces —
        not just equal counts, the same graph in the same encoding."""
        model = CORPUS[name]()
        spaces = {}
        for mode in MODES:
            model.clear_caches()  # force a fresh kernel per mode
            spaces[mode] = explore(
                model, max_states=10_000, strategy="symbolic",
                relation_mode=mode).to_json()
        assert spaces["partitioned"] == spaces["monolithic"], name


class TestVerdictsSurviveReorder:
    @pytest.mark.parametrize("mode", MODES)
    def test_forced_midstream_reorder_keeps_verdicts(self, mode):
        """Force a full sift between property checks: the analysis
        caches must come through the renumbering intact (or be
        correctly invalidated) — same verdicts either way."""
        model = CORPUS["chain3-cap2"]()
        props = ("AG !deadlock", "EF deadlock", "AG EF occurs(a0.start)")
        before = [check(model, text, strategy="symbolic",
                        relation_mode=mode).verdict for text in props]
        system = model.kernel.transition_system(model, relation_mode=mode)
        system.bdd.reorder()
        after = [check(model, text, strategy="symbolic",
                       relation_mode=mode).verdict for text in props]
        assert after == before
        assert before[0] is Verdict.HOLDS

    def test_forced_reorder_keeps_steps_at(self):
        """Table stepping on a compiled system reads its manager: after
        a forced sift, every state's steps are the same, whether served
        from the memos or enumerated afresh in the new level order."""
        model = CORPUS["forkjoin-cap2"]()
        system = model.kernel.transition_system(model)
        steps = {}
        frontier = [system.initial_ids]
        while frontier:
            ids = frontier.pop()
            if ids in steps:
                continue
            steps[ids] = (system.steps_at(ids),
                          system.steps_at(ids, include_empty=True))
            frontier += [system.successor(ids, step)
                         for step in steps[ids][0]]
        order = system.bdd.order
        system.bdd.reorder()
        assert system.bdd.order != order
        for fresh in (False, True):
            if fresh:
                system._steps_cache.clear()
            assert {ids: (system.steps_at(ids),
                          system.steps_at(ids, include_empty=True))
                    for ids in steps} == steps

    def test_reorder_between_fixpoints_keeps_the_count(self):
        model = CORPUS["forkjoin-cap2"]()
        first = symbolic_reachable(model)
        count = first.count()
        first.system.bdd.reorder()
        model.clear_caches()
        again = symbolic_reachable(model)
        assert again.count() == count
