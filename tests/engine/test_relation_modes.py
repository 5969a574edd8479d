"""Cluster layouts of the one transition relation.

The symbolic backend never conjoins the global relation. It merges the
per-constraint relation parts into clusters of at most
``DEFAULT_CLUSTER_CAP`` nodes, and every image and preimage is a
clustered product with early quantification. The clustering is a
layout, not a semantics. These tests force the two extreme layouts
through that one product — ``partitioned``, one cluster per
constraint, and ``monolithic``, the whole conjunction in a single
cluster — check each against the explicit engine on the equivalence
corpus, compare what the relation computes byte-for-byte across the
two, and pin that verdicts survive a forced variable reorder
mid-analysis and automatic reorders fired inside the fixpoints.
"""

import json
import sys

import pytest

from repro.engine import ctl, cross_check, explore, symbolic
from repro.engine.ctl import Verdict, check
from repro.engine.equivalence import battery_texts
from repro.engine.symbolic import symbolic_reachable
from repro.obs import GLOBAL

from tests.engine.test_symbolic_equivalence import CORPUS

#: the cluster-size cap that forces each layout: no merge fits under
#: 0 nodes, and every merge fits under ``sys.maxsize``
MODES = {"partitioned": 0, "monolithic": sys.maxsize}


def _force_layout(monkeypatch, mode):
    monkeypatch.setattr(symbolic, "DEFAULT_CLUSTER_CAP", MODES[mode])


def _compiled(model, mode):
    """*model*'s compiled system, checked to carry the forced layout."""
    system = model.kernel.transition_system(model)
    clusters = system.telemetry()["clusters"]
    assert clusters == (len(system.parts) if mode == "partitioned" else 1)
    return system


def _relation_artifacts(model):
    """Everything the relation computes for *model*: the reachable
    fixpoint layer by layer, the checker's deadlock and ``occurs``
    sets (read the way ``cross_check`` reads them) and the symbolic
    verdicts and witness traces of the property battery."""
    system = model.kernel.transition_system(model)
    checker = ctl._symbolic_checker(system, False)
    reachable = checker.reached
    zero = system.bdd.zero
    return {
        "layers": reachable.layer_counts(),
        "states": sorted(map(repr, reachable.states())),
        "deadlocks": system.count_states(checker.sat(ctl.Deadlock())),
        "dead_events": sorted(
            event for event in system.events
            if checker.sat(ctl.Occurs(event)) == zero),
        "checks": [check(model, text, strategy="symbolic").to_doc()
                   for text in battery_texts(model)],
    }


class TestCorpusBothModes:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    @pytest.mark.parametrize("mode", MODES)
    def test_mode_agrees_with_explicit(self, name, mode, monkeypatch):
        """Each layout independently matches the explicit engine on the
        full corpus (fixpoint, deadlocks, property verdicts)."""
        _force_layout(monkeypatch, mode)
        model = CORPUS[name]()
        _compiled(model, mode)
        report = cross_check(model, max_states=10_000)
        assert report["mismatches"] == [], (name, mode)
        assert report["fixpoint"] is not None

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_modes_serialize_identically(self, name, monkeypatch):
        """The two layouts compute the same relation: byte-identical
        fixpoints and property documents — not just equal counts, the
        same states and the same witness traces."""
        artifacts = {}
        for mode in MODES:
            _force_layout(monkeypatch, mode)
            model = CORPUS[name]()
            _compiled(model, mode)
            artifacts[mode] = json.dumps(_relation_artifacts(model),
                                         sort_keys=True)
        assert artifacts["partitioned"] == artifacts["monolithic"], name


class TestVerdictsSurviveReorder:
    @pytest.mark.parametrize("mode", MODES)
    def test_forced_midstream_reorder_keeps_verdicts(self, mode,
                                                     monkeypatch):
        """Force a full sift between property checks: the analysis
        caches must come through the renumbering intact (or be
        correctly invalidated) — same verdicts either way."""
        _force_layout(monkeypatch, mode)
        model = CORPUS["chain3-cap2"]()
        props = ("AG !deadlock", "EF deadlock", "AG EF occurs(a0.start)")
        before = [check(model, text, strategy="symbolic").verdict
                  for text in props]
        _compiled(model, mode).reorder()
        after = [check(model, text, strategy="symbolic").verdict
                 for text in props]
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
        system.reorder()
        assert system.bdd.order != order
        for fresh in (False, True):
            if fresh:
                system._steps_cache.clear()
            assert {ids: (system.steps_at(ids),
                          system.steps_at(ids, include_empty=True))
                    for ids in steps} == steps

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_concretization_across_a_sift_matches_explore(self, name):
        """The stepping memos are keyed on the order they were built
        under: a concretization started before a sift and repeated after
        it enumerates in the new level order, byte-identical to explicit
        exploration. Node ids survive the sift, so a memo kept across it
        answers wrong, or refuses a state bit as an event."""
        model = CORPUS[name]()
        system = model.kernel.transition_system(model)
        system.to_statespace(max_states=3)
        order = system.bdd.order
        system.reorder()
        assert system.bdd.order != order
        assert system.to_statespace(max_states=20_000).to_json() \
            == explore(model, max_states=20_000).to_json()

    def test_reorder_between_fixpoints_keeps_the_count(self):
        model = CORPUS["forkjoin-cap2"]()
        first = symbolic_reachable(model)
        count = first.count()
        first.system.reorder()
        model.clear_caches()
        again = symbolic_reachable(model)
        assert again.count() == count

    def test_repeated_witness_checks_keep_the_roots_flat(self):
        """A witness walk's distance-gauge rings are in-flight iterates,
        not roots: fifty more witness checks leave the system's reorder
        roots as the first one left them."""
        model = CORPUS["chain3-cap2"]()
        text = "EF occurs(a2.stop)"
        assert check(model, text, strategy="symbolic").witness_steps
        system = model.kernel.transition_system(model)
        roots = len(system._reorder_roots())
        for _ in range(50):
            assert check(model, text, strategy="symbolic").witness_steps
        assert len(system._reorder_roots()) == roots

    @pytest.mark.parametrize("name", ["chain3-cap2", "forkjoin-cap2"])
    def test_sift_at_every_safe_point_keeps_the_documents(self, name,
                                                          monkeypatch):
        """Sift at every safe point, against the system's roots plus the
        iterates in flight (the witness gauge's rings among them): every
        battery document, witness trace included, is the unforced one."""
        model = CORPUS[name]()
        texts = battery_texts(model)
        expected = [check(model, text, strategy="symbolic").to_doc()
                    for text in texts]
        sifts = []

        def sift(system, *in_flight):
            # a ring that is dropped and recomputed wrongly can keep the
            # gauge from converging: bound the run instead of hanging
            assert len(sifts) < 200, "the safe points do not converge"
            sifts.append(system.bdd.reorder(
                system._reorder_roots() + list(in_flight)))

        monkeypatch.setattr(symbolic.TransitionSystem, "_maybe_reorder",
                            sift)
        model = CORPUS[name]()
        assert [check(model, text, strategy="symbolic").to_doc()
                for text in texts] == expected
        assert sifts

    def test_automatic_reorders_keep_the_corpus_equivalent(self,
                                                           monkeypatch):
        """With the automatic trigger armed at 20 nodes, reorders fire
        at the fixpoint safe points of every corpus model, pinning the
        iterates in flight: the explicit engine still agrees on each."""
        monkeypatch.setattr(symbolic, "DEFAULT_AUTO_REORDER_THRESHOLD", 20)
        sifts = GLOBAL.counter("bdd.reorders")
        for name in sorted(CORPUS):
            report = cross_check(CORPUS[name](), max_states=10_000)
            assert report["mismatches"] == [], name
        assert GLOBAL.counter("bdd.reorders") > sifts
