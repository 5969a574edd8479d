"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main

APPLICATION = """
application demo {
  agent src
  agent dst
  place src -> dst push 1 pop 1 capacity 2
}
"""

DEPLOYMENT = """
platform board {
  processor cpu
}
allocation {
  src, dst -> cpu
}
"""


@pytest.fixture()
def app_file(tmp_path):
    path = tmp_path / "demo.sigpml"
    path.write_text(APPLICATION)
    return str(path)


@pytest.fixture()
def deployment_file(tmp_path):
    path = tmp_path / "board.deploy"
    path.write_text(DEPLOYMENT)
    return str(path)


class TestSimulate:
    def test_basic_run(self, app_file, capsys):
        assert main(["simulate", app_file, "--steps", "6"]) == 0
        out = capsys.readouterr().out
        assert "steps: 6" in out
        assert "src.start" in out

    def test_policies(self, app_file, capsys):
        for policy in ("asap", "minimal", "random"):
            assert main(["simulate", app_file, "--policy", policy,
                         "--steps", "4"]) == 0

    def test_vcd_export(self, app_file, tmp_path, capsys):
        vcd_path = tmp_path / "trace.vcd"
        assert main(["simulate", app_file, "--vcd", str(vcd_path)]) == 0
        content = vcd_path.read_text()
        assert "$enddefinitions" in content

    def test_missing_file(self, capsys):
        assert main(["simulate", "/nonexistent.sigpml"]) == 1
        assert "error" in capsys.readouterr().err

    def test_parse_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.sigpml"
        bad.write_text("application x {\n banana\n}\n")
        assert main(["simulate", str(bad)]) == 1
        assert "error" in capsys.readouterr().err


class TestExplore:
    def test_statespace_report(self, app_file, capsys):
        assert main(["explore", app_file]) == 0
        out = capsys.readouterr().out
        assert "states" in out
        assert "deadlocks: 0" in out

    def test_variant_flag(self, app_file, capsys):
        assert main(["explore", app_file, "--variant", "multiport"]) == 0


class TestCheck:
    def test_holds_exit_zero(self, app_file, capsys):
        assert main(["check", app_file, "AG !deadlock"]) == 0
        out = capsys.readouterr().out
        assert "verdict:  HOLDS" in out
        assert "property: AG !deadlock" in out

    def test_fails_exit_one_with_counterexample(self, app_file, capsys):
        assert main(["check", app_file, "AG occurs(src.start)"]) == 1
        out = capsys.readouterr().out
        assert "verdict:  FAILS" in out
        assert "counterexample:" in out
        assert "src.start" in out  # the ASCII trace diagram

    def test_unknown_exit_one_with_reason(self, app_file, capsys):
        assert main(["check", app_file, "AG !deadlock",
                     "--strategy", "explicit", "--max-states", "1"]) == 1
        out = capsys.readouterr().out
        assert "verdict:  UNKNOWN" in out
        assert "truncated" in out

    def test_strategies_agree(self, app_file, capsys):
        for strategy in ("explicit", "symbolic", "auto"):
            assert main(["check", app_file, "AF occurs(dst.start)",
                         "--strategy", strategy]) == 0

    def test_json_payload(self, app_file, capsys):
        assert main(["check", app_file, "EF occurs(dst.start)",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "check"
        assert doc["data"]["verdict"] == "holds"
        assert doc["data"]["witness_kind"] == "witness"
        assert "version" in doc

    def test_syntax_error_reported(self, app_file, capsys):
        assert main(["check", app_file, "AG (((("]) == 1
        assert "property syntax" in capsys.readouterr().err

    def test_batch_check_spec(self, app_file, tmp_path, capsys):
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps({
            "models": {"demo": {"frontend": "sigpml", "path": app_file}},
            "runs": [{"kind": "check", "model": "demo",
                      "property": "AG !deadlock", "strategy": "auto"}],
        }))
        assert main(["batch", str(batch)]) == 0
        out = capsys.readouterr().out
        assert "HOLDS" in out


class TestAnalyze:
    def test_repetition_and_pass(self, app_file, capsys):
        assert main(["analyze", app_file]) == 0
        out = capsys.readouterr().out
        assert "repetition vector" in out
        assert "src: 1" in out
        assert "PASS:" in out


class TestDot:
    def test_application_dot(self, app_file, capsys):
        assert main(["dot", "application", app_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert '"src" -> "dst"' in out

    def test_automaton_dot(self, capsys):
        assert main(["dot", "automaton", "--constraint",
                     "PlaceConstraint"]) == 0
        out = capsys.readouterr().out
        assert "digraph" in out

    def test_unknown_constraint(self, capsys):
        assert main(["dot", "automaton", "--constraint", "Nope"]) == 2

    def test_statespace_dot(self, app_file, capsys):
        assert main(["dot", "statespace", app_file]) == 0
        assert "digraph" in capsys.readouterr().out


class TestJsonOutput:
    """Golden --json output: stable, parseable, spec-complete."""

    def test_simulate_json(self, app_file, capsys):
        assert main(["simulate", app_file, "--steps", "6", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "simulate"
        assert doc["status"] == "ok"
        assert doc["data"]["steps_run"] == 6
        assert doc["data"]["counts"]["src.start"] == 4
        assert doc["spec"]["policy"] == "asap"
        assert len(doc["data"]["trace"]) == 6

    def test_simulate_json_is_byte_stable(self, app_file, capsys):
        assert main(["simulate", app_file, "--steps", "6", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["simulate", app_file, "--steps", "6", "--json"]) == 0
        assert capsys.readouterr().out == first

    def test_simulate_json_random_policy(self, app_file, capsys):
        assert main(["simulate", app_file, "--policy", "random",
                     "--seed", "3", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["spec"]["policy"] == {"name": "random", "seed": 3}

    def test_simulate_priority_weights(self, app_file, capsys):
        assert main(["simulate", app_file, "--policy", "priority",
                     "--weight", "src.start=5", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["spec"]["policy"]["weights"] == {"src.start": 5}

    def test_explore_json_round_trips(self, app_file, capsys):
        from repro.workbench import RunResult
        assert main(["explore", app_file, "--json"]) == 0
        out = capsys.readouterr().out
        result = RunResult.from_json(out)
        assert result.data["summary"]["deadlocks"] == 0
        assert result.statespace().n_states \
            == result.data["summary"]["states"]

    def test_analyze_json(self, app_file, capsys):
        assert main(["analyze", app_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["data"]["repetition"] == {"src": 1, "dst": 1}
        assert doc["data"]["schedule"] == ["src", "dst"]

    def test_campaign_json(self, app_file, capsys):
        assert main(["campaign", app_file, "--steps", "8", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        policies = {row["policy"] for row in doc["data"]["rows"]}
        assert policies == {"asap", "minimal", "random"}

    def test_simulate_json_still_writes_vcd(self, app_file, tmp_path,
                                            capsys):
        vcd_path = tmp_path / "trace.vcd"
        assert main(["simulate", app_file, "--vcd", str(vcd_path),
                     "--json"]) == 0
        assert "$enddefinitions" in vcd_path.read_text()
        json.loads(capsys.readouterr().out)

    def test_dot_json(self, app_file, capsys):
        assert main(["dot", "application", app_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "dot"
        assert doc["dot"].startswith("digraph")

    def test_deploy_json(self, app_file, deployment_file, capsys):
        assert main(["deploy", app_file, deployment_file, "--steps", "4",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["deployment"]["metadata"]["mutexes"] == 1
        assert doc["simulate"]["data"]["steps_run"] == 4


class TestBatch:
    def batch_file(self, tmp_path, app_file, runs):
        document = {
            "models": {"demo": {"frontend": "sigpml", "path": app_file}},
            "runs": runs,
        }
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(document))
        return str(path)

    def test_two_specs_two_results(self, tmp_path, app_file, capsys):
        path = self.batch_file(tmp_path, app_file, [
            {"kind": "simulate", "model": "demo", "steps": 5},
            {"kind": "explore", "model": "demo", "max_states": 100},
        ])
        assert main(["batch", path, "--json"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert len(docs) == 2
        assert [doc["kind"] for doc in docs] == ["simulate", "explore"]
        assert all(doc["status"] == "ok" for doc in docs)

    def test_text_mode_streams_summaries(self, tmp_path, app_file,
                                         capsys):
        path = self.batch_file(tmp_path, app_file, [
            {"kind": "simulate", "model": "demo", "steps": 5},
            {"kind": "analyze", "model": "demo"},
        ])
        assert main(["batch", path]) == 0
        out = capsys.readouterr().out
        assert "2 run(s), 0 failure(s)" in out
        assert "simulate" in out and "analyze" in out

    def test_workers_do_not_change_output(self, tmp_path, app_file,
                                          capsys):
        path = self.batch_file(tmp_path, app_file, [
            {"kind": "simulate", "model": "demo", "steps": 6},
            {"kind": "explore", "model": "demo"},
            {"kind": "campaign", "model": "demo", "steps": 6},
        ])
        assert main(["batch", path, "--json"]) == 0
        sequential = capsys.readouterr().out
        assert main(["batch", path, "--json", "--workers", "4"]) == 0
        assert capsys.readouterr().out == sequential

    def test_bare_list_with_path_models(self, tmp_path, app_file, capsys):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps([
            {"kind": "simulate", "model": app_file, "steps": 4},
            {"kind": "simulate", "model": app_file, "steps": 5},
        ]))
        assert main(["batch", str(path), "--json"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert [doc["data"]["steps_run"] for doc in docs] == [4, 5]

    def test_failures_flip_the_exit_code(self, tmp_path, app_file,
                                         capsys):
        path = self.batch_file(tmp_path, app_file, [
            {"kind": "simulate", "model": "demo",
             "policy": {"name": "nope"}},
        ])
        assert main(["batch", path, "--json"]) == 1
        docs = json.loads(capsys.readouterr().out)
        assert docs[0]["status"] == "error"

    def test_empty_batch_rejected(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        assert main(["batch", str(path)]) == 2
        assert "no runs" in capsys.readouterr().err


class TestDeploy:
    def test_deploy_and_simulate(self, app_file, deployment_file, capsys):
        assert main(["deploy", app_file, deployment_file,
                     "--steps", "6"]) == 0
        out = capsys.readouterr().out
        assert "1 mutex(es)" in out
        assert "steps: 6" in out

    def test_deploy_with_exploration(self, app_file, deployment_file,
                                     capsys):
        assert main(["deploy", app_file, deployment_file, "--explore",
                     "--steps", "4"]) == 0
        assert "state space" in capsys.readouterr().out

    def test_deployment_without_allocation(self, app_file, tmp_path,
                                           capsys):
        partial = tmp_path / "partial.deploy"
        partial.write_text("platform p {\n processor cpu\n}\n")
        assert main(["deploy", app_file, str(partial)]) == 2


class TestVersion:
    def test_version_flag(self, capsys):
        import repro
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {repro.__version__}" in capsys.readouterr().out

    def test_version_in_json_payloads(self, app_file, capsys):
        import repro
        assert main(["explore", app_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == repro.__version__

    def test_version_in_dot_json(self, capsys):
        import repro
        assert main(["dot", "automaton", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == repro.__version__

    def test_fallback_version_matches_pyproject(self):
        # the source-checkout fallback in repro/__init__.py must track
        # the single declared version in pyproject.toml (3.10-compatible
        # regex parse; tomllib only exists from 3.11)
        import re
        from pathlib import Path

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        declared = re.search(r'^version = "([^"]+)"', pyproject.read_text(),
                             re.MULTILINE).group(1)
        source = (Path(__file__).resolve().parents[1] / "src" / "repro"
                  / "__init__.py").read_text()
        fallback = re.search(r'__version__ = "([^"]+)"', source).group(1)
        assert fallback == declared


class TestExploreStrategy:
    def test_symbolic_matches_explicit(self, app_file, capsys):
        outputs = {}
        for strategy in ("explicit", "symbolic", "auto"):
            assert main(["explore", app_file, "--strategy", strategy]) == 0
            outputs[strategy] = capsys.readouterr().out
        assert outputs["explicit"] == outputs["symbolic"]
        assert outputs["explicit"] == outputs["auto"]

    def test_strategy_recorded_in_json(self, app_file, capsys):
        assert main(["explore", app_file, "--strategy", "symbolic",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["data"]["strategy"] == "symbolic"
        assert doc["spec"]["strategy"] == "symbolic"


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "selftest PASSED" in out
        assert "sigpml-chain" in out
        assert "ccsl-clocks" in out
        assert "artifact store" in out

    def test_selftest_json(self, capsys):
        import repro
        assert main(["selftest", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "selftest"
        assert doc["ok"] is True
        assert doc["version"] == repro.__version__
        assert len(doc["reports"]) == 3
        assert all(report["agree"] for report in doc["reports"])
        # the cold/warm store round-trip rode along and agreed
        assert doc["store"]["agree"] is True
        assert doc["store"]["warm_hits"] == doc["store"]["specs"]


class TestBatchStore(TestBatch):
    """The farm flags: --store serves warm runs, --backend sweeps."""

    def runs(self):
        return [
            {"kind": "simulate", "model": "demo", "steps": 5},
            {"kind": "explore", "model": "demo", "max_states": 100},
            {"kind": "check", "model": "demo",
             "property": "AG !deadlock"},
        ]

    def test_second_run_is_all_cache_hits(self, tmp_path, app_file,
                                          capsys):
        path = self.batch_file(tmp_path, app_file, self.runs())
        store = str(tmp_path / "farm")
        assert main(["batch", path, "--store", store, "--json"]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert all(doc["cached"] is False for doc in cold)
        assert main(["batch", path, "--store", store, "--json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert all(doc["cached"] is True for doc in warm)
        # the artifacts themselves are byte-identical: only the
        # transport flag differs
        for one, two in zip(cold, warm):
            del one["cached"], two["cached"]
        assert warm == cold

    def test_text_mode_reports_hits(self, tmp_path, app_file, capsys):
        path = self.batch_file(tmp_path, app_file, self.runs())
        store = str(tmp_path / "farm")
        assert main(["batch", path, "--store", store]) == 0
        capsys.readouterr()
        assert main(["batch", path, "--store", store]) == 0
        out = capsys.readouterr().out
        assert "3 run(s), 0 failure(s), 3 cache hit(s)" in out
        assert "[cached]" in out

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_backends_match_the_default(self, tmp_path, app_file,
                                        backend, capsys):
        path = self.batch_file(tmp_path, app_file, self.runs())
        assert main(["batch", path, "--json"]) == 0
        baseline = capsys.readouterr().out
        assert main(["batch", path, "--json", "--backend", backend,
                     "--workers", "4"]) == 0
        assert capsys.readouterr().out == baseline

    @pytest.mark.parametrize("command", ["batch", "submit"])
    def test_thread_backend_rejected(self, tmp_path, app_file, command,
                                     capsys):
        path = self.batch_file(tmp_path, app_file, self.runs())
        with pytest.raises(SystemExit) as excinfo:
            main([command, path, "--backend", "thread"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'thread'" in capsys.readouterr().err

    def test_default_backend_stays_in_process(self, tmp_path, app_file,
                                              monkeypatch, capsys):
        # --workers alone never spawns a process pool: serial is the
        # default backend
        import repro.farm.backend as backend

        def no_pool(*args, **kwargs):
            raise AssertionError("the default backend spawned a pool")

        monkeypatch.setattr(backend, "ProcessPoolExecutor", no_pool)
        path = self.batch_file(tmp_path, app_file, self.runs())
        assert main(["batch", path, "--json", "--workers", "2"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert [doc["status"] for doc in docs] == ["ok"] * 3

    def test_without_store_docs_carry_no_cached_flag(self, tmp_path,
                                                     app_file, capsys):
        path = self.batch_file(tmp_path, app_file, self.runs())
        assert main(["batch", path, "--json"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert all("cached" not in doc for doc in docs)


class TestStoreCommands:
    def populate(self, tmp_path, app_file, capsys):
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps([
            {"kind": "simulate", "model": app_file, "steps": 4},
            {"kind": "explore", "model": app_file, "max_states": 50},
        ]))
        store = str(tmp_path / "farm")
        assert main(["batch", str(batch), "--store", store]) == 0
        capsys.readouterr()
        return store

    def test_stats(self, tmp_path, app_file, capsys):
        store = self.populate(tmp_path, app_file, capsys)
        assert main(["store", "stats", store]) == 0
        out = capsys.readouterr().out
        assert "2 artifact(s)" in out

    def test_stats_json(self, tmp_path, app_file, capsys):
        import repro
        store = self.populate(tmp_path, app_file, capsys)
        assert main(["store", "stats", store, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "store-stats"
        assert doc["entries"] == 2
        assert doc["total_bytes"] > 0
        assert doc["version"] == repro.__version__

    def test_gc_max_entries(self, tmp_path, app_file, capsys):
        store = self.populate(tmp_path, app_file, capsys)
        assert main(["store", "gc", store, "--max-entries", "1",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "store-gc"
        assert doc["removed"] == 1
        assert doc["kept"] == 1

    def test_gc_without_limits_reports_noop(self, tmp_path, app_file,
                                            capsys):
        store = self.populate(tmp_path, app_file, capsys)
        assert main(["store", "gc", store]) == 0
        out = capsys.readouterr().out
        assert "removed 0" in out

    def test_missing_store_is_an_error_not_a_mkdir(self, tmp_path,
                                                   capsys):
        ghost = str(tmp_path / "no-such-store")
        assert main(["store", "stats", ghost]) == 2
        err = capsys.readouterr().err
        assert "does not exist" in err
        # inspection must not have conjured the directory
        import os
        assert not os.path.exists(ghost)
