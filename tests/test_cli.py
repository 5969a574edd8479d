"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.workbench.frontends import PATH_FIELDS
from tests.serve.test_server import BAD_MODELS
from tests.workbench.test_artifacts import BAD_RUNS

#: the model descriptions the server refuses that a batch file refuses
#: too: all but those naming a file, which batch loads
BATCH_BAD_MODELS = [
    case for case in BAD_MODELS
    if not (isinstance(case[1], dict) and set(PATH_FIELDS) & set(case[1]))]

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

    def test_relation_mode_flag_is_gone(self, app_file, capsys):
        # one symbolic relation layout: the old selector is an
        # argparse error, not a silently accepted no-op
        with pytest.raises(SystemExit) as excinfo:
            main(["check", app_file, "AG !deadlock",
                  "--relation-mode", "partitioned"])
        assert excinfo.value.code == 2
        assert "--relation-mode" in capsys.readouterr().err

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


class TestBatchRefusals:
    @pytest.mark.parametrize("models, run, field", [
        ({"demo": {"frontend": "sigpml", "path": "demo.sigpml"}},
         {"model": "demo", **doc}, field) for _id, doc, field in BAD_RUNS
    ] + [
        ({"demo": description}, {"kind": "simulate", "model": "demo"},
         field) for _id, description, field in BATCH_BAD_MODELS
    ] + [
        ([], {"kind": "simulate", "model": "demo"}, "'models'"),
    ], ids=[case[0] for case in BAD_RUNS]
        + [case[0] for case in BATCH_BAD_MODELS] + ["models-not-an-object"])
    def test_bad_document_is_one_error_line(self, tmp_path, monkeypatch,
                                            capsys, models, run, field):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "demo.sigpml").write_text(APPLICATION)
        path = tmp_path / "batch.json"
        path.write_text(json.dumps({"models": models, "runs": [run]}))
        assert main(["batch", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1 and field in captured.err

    def test_file_that_is_not_json(self, tmp_path, capsys):
        path = tmp_path / "batch.json"
        path.write_text("{nope")
        assert main(["batch", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


#: one model under a document key ("m") that differs from the name its
#: description gives the loaded handle ("ccsl-spec")
ALIASED_LINT = {
    "models": {"m": {"frontend": "ccsl", "events": ["a", "b"],
                     "constraints": [{"relation": "Alternates",
                                      "args": ["a", "b"]}]}},
    "runs": [{"kind": "lint", "model": "m"}],
}


class TestAliasedLint:
    """A lint result names the spec's model, so its bytes are a function
    of the store key on every path that runs a document."""

    def cli_docs(self, capsys, argv) -> list:
        assert main(argv) == 0
        docs = json.loads(capsys.readouterr().out)
        for doc in docs:
            doc.pop("cached", None)
        return docs

    def test_every_path_gives_the_same_document(self, tmp_path, capsys):
        from repro.serve import serve, submit
        from repro.workbench import LintSpec, Workbench, source_from_doc

        path = tmp_path / "alias.json"
        path.write_text(json.dumps(ALIASED_LINT))
        batch = self.cli_docs(capsys, ["batch", str(path), "--json"])
        local = self.cli_docs(capsys, ["submit", str(path), "--json"])
        with serve(port=0, workers=1).start() as server:
            served = [result.to_doc()
                      for result in submit(ALIASED_LINT, server.url)]
        workbench = Workbench()
        handle = workbench.add(
            source_from_doc(ALIASED_LINT["models"]["m"]), name="renamed")
        workbench.attach("m", handle)
        offline = [workbench.run(LintSpec("m")).to_doc()]
        assert batch == local == served == offline
        [doc] = batch
        assert doc["model"] == doc["data"]["model"] == "m"

    def test_store_filled_by_submit_serves_cold_bytes(self, tmp_path,
                                                      capsys):
        path = tmp_path / "alias.json"
        path.write_text(json.dumps(ALIASED_LINT))
        store = str(tmp_path / "store")
        cold = self.cli_docs(capsys, ["batch", str(path), "--json"])
        self.cli_docs(capsys, ["submit", str(path), "--store", store,
                               "--json"])
        assert main(["batch", str(path), "--store", store, "--json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert all(doc.pop("cached") for doc in warm)
        assert warm == cold

    def test_path_token_lint_names_the_token(self, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "demo.sigpml").write_text(APPLICATION)
        (tmp_path / "batch.json").write_text(json.dumps(
            [{"kind": "lint", "model": "demo.sigpml"}]))
        [doc] = self.cli_docs(capsys, ["batch", "batch.json", "--json"])
        assert doc["data"]["model"] == "demo.sigpml"


class TestLocalWorkers:
    """`repro batch` and `repro submit`'s local fallback share one
    default for --workers: the core count on the process backend."""

    def test_batch_and_submit_reach_the_backend_alike(self, tmp_path,
                                                      monkeypatch):
        import os

        import repro.farm as farm

        execute_groups = farm.execute_groups
        reached = []

        def record(groups, backend, workers, deliver, should_stop=None):
            reached.append((backend, workers))
            # no pool: the recorded arguments are what is under test
            execute_groups(groups, "serial", 1, deliver, should_stop)

        monkeypatch.setattr(farm, "execute_groups", record)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        model = {"frontend": "ccsl", "events": ["a", "b"],
                 "constraints": [{"relation": "Alternates",
                                  "args": ["a", "b"]}]}
        path = tmp_path / "two.json"
        path.write_text(json.dumps({
            "models": {"one": model, "two": model},
            "runs": [{"kind": "simulate", "model": "one", "steps": 4},
                     {"kind": "simulate", "model": "two", "steps": 4}]}))
        for command in ("batch", "submit"):
            assert main([command, str(path), "--backend", "process",
                         "--json"]) == 0
        assert reached == [("process", 4), ("process", 4)]


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

    def test_pyproject_reads_the_version_from_the_source(self):
        # one declaration: pyproject.toml takes its version from
        # repro.__version__ (3.10-compatible regex parse; tomllib only
        # exists from 3.11), so no second literal can fall behind
        import re
        from pathlib import Path

        pyproject = (Path(__file__).resolve().parents[1]
                     / "pyproject.toml").read_text()
        assert re.search(r'^dynamic = \["version"\]', pyproject,
                         re.MULTILINE)
        assert re.search(
            r'^version = \{ attr = "repro.__version__" \}', pyproject,
            re.MULTILINE)
        assert not re.search(r'^version = "', pyproject, re.MULTILINE)

    def test_stale_install_metadata_is_not_the_version(self):
        # an install made before a version bump keeps the old metadata;
        # the version (and so every store key) must still follow the
        # source
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        root = Path(__file__).resolve().parents[1]
        script = ("import importlib.metadata as metadata\n"
                  "metadata.version = lambda name: '0.0.0-stale'\n"
                  "import repro\n"
                  "print(repro.__version__)\n")
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == repro.__version__ != "0.0.0-stale"


class TestExploreStrategy:
    """Exploration has one path; strategy is a ``check`` choice."""

    def test_symbolic_matches_explicit(self, app_file, capsys):
        from repro.workbench import load

        assert main(["explore", app_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        model = load(app_file).execution_model
        compiled = model.kernel.transition_system(model).to_statespace()
        assert doc["data"]["statespace"] == json.loads(compiled.to_json())

    def test_no_strategy_in_json(self, app_file, capsys):
        # one path, so neither the spec nor the payload names one
        assert main(["explore", app_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "strategy" not in doc["data"]
        assert "strategy" not in doc["spec"]

    def test_strategy_flag_is_gone(self, app_file, capsys):
        # the old selector is an argparse error, not a silently
        # accepted no-op
        with pytest.raises(SystemExit) as excinfo:
            main(["explore", app_file, "--strategy", "symbolic"])
        assert excinfo.value.code == 2
        assert "--strategy" in capsys.readouterr().err


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
