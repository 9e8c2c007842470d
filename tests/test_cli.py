"""The command-line interface, driven through its main() entry."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main


@pytest.fixture
def bundle_path(tmp_path):
    payload = {
        "schema": {
            "MGR": ["NAME", "DEPT"],
            "EMP": ["NAME", "DEPT"],
            "PERSON": ["NAME"],
        },
        "dependencies": [
            "MGR[NAME,DEPT] <= EMP[NAME,DEPT]",
            "EMP[NAME] <= PERSON[NAME]",
            "EMP: NAME -> DEPT",
        ],
        "database": {
            "MGR": [["Hilbert", "Math"]],
            "EMP": [["Hilbert", "Math"], ["Noether", "Math"]],
            "PERSON": [["Hilbert"], ["Noether"]],
        },
    }
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def violated_bundle_path(tmp_path):
    payload = {
        "schema": {"MGR": ["NAME"], "EMP": ["NAME"]},
        "dependencies": ["MGR[NAME] <= EMP[NAME]"],
        "database": {"MGR": [["Ghost"]], "EMP": []},
    }
    path = tmp_path / "violated.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestCheck:
    def test_all_ok(self, bundle_path, capsys):
        assert main(["check", bundle_path]) == 0
        out = capsys.readouterr().out
        assert "3/3 dependencies hold" in out

    def test_violation_reported(self, violated_bundle_path, capsys):
        assert main(["check", violated_bundle_path]) == 1
        out = capsys.readouterr().out
        assert "VIOLATED" in out
        assert "Ghost" in out

    def test_non_scalar_cell_is_an_error_not_a_traceback(
        self, tmp_path, capsys
    ):
        path = tmp_path / "cells.json"
        path.write_text(json.dumps(
            {"schema": {"R": ["A"]}, "database": {"R": [[["nested"]]]}}
        ))
        assert main(["check", str(path)]) == 2
        assert "a database cell must be a JSON scalar" in (
            capsys.readouterr().err
        )

    def test_bundle_without_database(self, tmp_path):
        path = tmp_path / "nodb.json"
        path.write_text(json.dumps({"schema": {"R": ["A"]}}))
        assert main(["check", str(path)]) == 2


class TestImplies:
    def test_implied(self, bundle_path, capsys):
        assert main(["implies", bundle_path, "MGR[NAME] <= PERSON[NAME]"]) == 0
        assert "IMPLIED" in capsys.readouterr().out

    def test_not_implied(self, bundle_path, capsys):
        assert main(["implies", bundle_path, "PERSON[NAME] <= MGR[NAME]"]) == 1

    def test_fd_target_via_chase(self, bundle_path, capsys):
        assert main(["implies", bundle_path, "MGR: NAME -> DEPT"]) == 0
        assert "chase" in capsys.readouterr().out

    def test_malformed_target(self, bundle_path, capsys):
        assert main(["implies", bundle_path, "NOT A DEP"]) == 2


class TestProve:
    def test_proof_printed(self, bundle_path, capsys):
        assert main(["prove", bundle_path, "MGR[NAME] <= PERSON[NAME]"]) == 0
        out = capsys.readouterr().out
        assert "IND3" in out
        assert "verified" in out

    def test_unprovable(self, bundle_path, capsys):
        assert main(["prove", bundle_path, "PERSON[NAME] <= MGR[NAME]"]) == 1

    def test_mixed_premises_negative_does_not_overclaim(self, tmp_path, capsys):
        # The IND calculus only saw the IND premises; with an FD in the
        # bundle a failed proof search must not print "NOT implied".
        payload = {
            "schema": {"R": ["A", "B"], "S": ["A", "B"]},
            "dependencies": ["R[A,B] <= S[A,B]", "S: A -> B"],
        }
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(payload))
        assert main(["prove", str(path), "S[A] <= R[A]"]) == 1
        out = capsys.readouterr().out
        assert "NOT provable from the IND premises alone" in out
        assert "NOT implied by the premises" not in out


class TestBatch:
    @pytest.fixture
    def targets_path(self, tmp_path):
        path = tmp_path / "targets.txt"
        path.write_text(
            "# implied ones first\n"
            "MGR[NAME] <= PERSON[NAME]\n"
            "MGR[DEPT] <= EMP[DEPT]\n"
            "\n"
            "PERSON[NAME] <= MGR[NAME]\n"
        )
        return str(path)

    def test_verdict_table(self, bundle_path, targets_path, capsys):
        # One unimplied target: exit code 1, all verdicts printed.
        assert main(["batch", bundle_path, targets_path]) == 1
        out = capsys.readouterr().out
        assert "MGR[NAME] <= PERSON[NAME]" in out
        assert out.count("IMPLIED") >= 2  # NOT implied also contains IMPLIED
        assert "NOT implied" in out
        assert "2/3 implied" in out
        assert "indexed once" in out

    def test_all_implied_exits_zero(self, bundle_path, tmp_path, capsys):
        path = tmp_path / "ok.txt"
        path.write_text("MGR[NAME] <= PERSON[NAME]\nMGR[NAME] <= EMP[NAME]\n")
        assert main(["batch", bundle_path, str(path)]) == 0
        assert "2/2 implied" in capsys.readouterr().out

    def test_engine_column_present(self, bundle_path, targets_path, capsys):
        main(["batch", bundle_path, targets_path])
        # The fixture bundle mixes INDs and an FD, so IND questions
        # route to the chase.
        assert "chase" in capsys.readouterr().out

    def test_empty_targets_file(self, bundle_path, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("# only a comment\n")
        assert main(["batch", bundle_path, str(path)]) == 2

    def test_malformed_target_reported(self, bundle_path, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("NOT A DEP\n")
        assert main(["batch", bundle_path, str(path)]) == 2


class TestImpliesFinite:
    @pytest.fixture
    def unary_bundle_path(self, tmp_path):
        payload = {
            "schema": {"R": ["A", "B"]},
            "dependencies": ["R[A] <= R[B]", "R: A -> B"],
        }
        path = tmp_path / "unary.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_finite_flag_flips_the_verdict(self, unary_bundle_path, capsys):
        # The Theorem 4.4 split: finitely implied, not unrestrictedly.
        assert main(["implies", unary_bundle_path, "--finite",
                     "R[B] <= R[A]"]) == 0
        assert "finite-unary" in capsys.readouterr().out
        assert main(["implies", unary_bundle_path, "R[B] <= R[A]"]) == 1


class TestJsonOutput:
    def test_implies_json(self, bundle_path, capsys):
        assert main(["implies", bundle_path, "--json",
                     "MGR[NAME] <= PERSON[NAME]"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] is True
        assert payload["engine"] == "chase"  # bundle mixes INDs and an FD
        assert payload["version"] == 0

    def test_implies_json_exit_code_still_tracks_verdict(
        self, bundle_path, capsys
    ):
        assert main(["implies", bundle_path, "--json",
                     "PERSON[NAME] <= MGR[NAME]"]) == 1
        assert json.loads(capsys.readouterr().out)["verdict"] is False

    def test_batch_json(self, bundle_path, tmp_path, capsys):
        targets = tmp_path / "targets.txt"
        targets.write_text(
            "MGR[NAME] <= PERSON[NAME]\nPERSON[NAME] <= MGR[NAME]\n"
        )
        assert main(["batch", bundle_path, str(targets), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == 2 and payload["implied"] == 1
        assert [a["verdict"] for a in payload["answers"]] == [True, False]

    def test_check_json(self, violated_bundle_path, capsys):
        assert main(["check", violated_bundle_path, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["results"][0]["witnesses"] == [["Ghost"]]


class TestWhatIf:
    @pytest.fixture
    def ind_bundle_path(self, tmp_path):
        payload = {
            "schema": {
                "MGR": ["NAME", "DEPT"],
                "EMP": ["NAME", "DEPT"],
                "PERSON": ["NAME"],
            },
            "dependencies": ["MGR[NAME,DEPT] <= EMP[NAME,DEPT]"],
        }
        path = tmp_path / "inds.json"
        path.write_text(json.dumps(payload))
        return str(path)

    @pytest.fixture
    def targets_path(self, tmp_path):
        path = tmp_path / "targets.txt"
        path.write_text(
            "MGR[NAME] <= PERSON[NAME]\nMGR[NAME] <= EMP[NAME]\n"
        )
        return str(path)

    def test_add_flips_a_verdict(self, ind_bundle_path, targets_path, capsys):
        # diff semantics: exit 1 when verdicts differ
        assert main(["whatif", ind_bundle_path, targets_path,
                     "--add", "EMP[NAME] <= PERSON[NAME]"]) == 1
        out = capsys.readouterr().out
        assert "FLIPPED" in out
        assert "1/2 verdicts flipped" in out
        assert "base v0 -> variant v1" in out

    def test_no_flips_exits_zero(self, ind_bundle_path, targets_path, capsys):
        assert main(["whatif", ind_bundle_path, targets_path,
                     "--add", "PERSON[NAME] <= EMP[NAME]"]) == 0
        assert "0/2 verdicts flipped" in capsys.readouterr().out

    def test_patch_file(self, ind_bundle_path, targets_path, tmp_path, capsys):
        patch = tmp_path / "patch.json"
        patch.write_text(json.dumps({"add": ["EMP[NAME] <= PERSON[NAME]"]}))
        assert main(["whatif", ind_bundle_path, targets_path,
                     "--patch", str(patch)]) == 1
        assert "FLIPPED" in capsys.readouterr().out

    def test_retract_option(self, ind_bundle_path, targets_path, capsys):
        assert main(["whatif", ind_bundle_path, targets_path,
                     "--retract", "MGR[NAME,DEPT] <= EMP[NAME,DEPT]"]) == 1
        assert "verdicts flipped" in capsys.readouterr().out

    def test_json_output(self, ind_bundle_path, targets_path, capsys):
        assert main(["whatif", ind_bundle_path, targets_path, "--json",
                     "--add", "EMP[NAME] <= PERSON[NAME]"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["flipped"] == 1 and payload["total"] == 2
        assert payload["flips"][0]["before"]["verdict"] is False
        assert payload["flips"][0]["after"]["verdict"] is True

    def test_requires_a_mutation(self, ind_bundle_path, targets_path, capsys):
        assert main(["whatif", ind_bundle_path, targets_path]) == 2
        assert "needs --add" in capsys.readouterr().err

    def test_bad_patch_reported(self, ind_bundle_path, targets_path, tmp_path):
        patch = tmp_path / "patch.json"
        patch.write_text(json.dumps({"nonsense": []}))
        assert main(["whatif", ind_bundle_path, targets_path,
                     "--patch", str(patch)]) == 2


class TestShell:
    def _run(self, monkeypatch, bundle, script):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        return main(["shell", bundle])

    def test_lifecycle_round_trip(self, monkeypatch, capsys, tmp_path):
        payload = {
            "schema": {
                "MGR": ["NAME", "DEPT"],
                "EMP": ["NAME", "DEPT"],
                "PERSON": ["NAME"],
            },
            "dependencies": ["MGR[NAME,DEPT] <= EMP[NAME,DEPT]"],
        }
        path = tmp_path / "inds.json"
        path.write_text(json.dumps(payload))
        script = (
            "version\n"
            "implies MGR[NAME] <= PERSON[NAME]\n"
            "add EMP[NAME] <= PERSON[NAME]\n"
            "implies MGR[NAME] <= PERSON[NAME]\n"
            "retract EMP[NAME] <= PERSON[NAME]\n"
            "deps\n"
            "quit\n"
        )
        assert self._run(monkeypatch, str(path), script) == 0
        out = capsys.readouterr().out
        assert "v0" in out
        assert "NOT implied" in out
        assert "v1: +1 premise" in out
        assert "v2: -1 premise" in out
        assert "(1 premises, v2)" in out

    def test_errors_do_not_kill_the_shell(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"schema": {"R": ["A", "B"]}}))
        script = (
            "retract R[A] <= R[B]\n"   # not a premise
            "implies NOT A DEP\n"      # parse error
            "bogus\n"                  # unknown command
            "add R[A] <= R[B]\n"
            "version\n"
        )  # no quit: EOF ends the shell
        assert self._run(monkeypatch, str(path), script) == 0
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "unknown command" in captured.err
        assert "v1" in captured.out

    def test_keys_closure_stats_and_finite(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({
            "schema": {"R": ["A", "B"]},
            "dependencies": ["R[A] <= R[B]", "R: A -> B"],
        }))
        script = (
            "implies -f R[B] <= R[A]\n"
            "keys R\n"
            "closure R A\n"
            "stats\n"
            "help\n"
            "exit\n"
        )
        assert self._run(monkeypatch, str(path), script) == 0
        out = capsys.readouterr().out
        assert "finite-unary" in out
        assert "R: {A}" in out
        assert "{A,B}" in out
        assert "queries:" in out
        assert "commands:" in out


class TestKeysAndSummary:
    def test_keys(self, bundle_path, capsys):
        assert main(["keys", bundle_path]) == 0
        out = capsys.readouterr().out
        assert "EMP[NAME,DEPT]: {NAME}" in out

    def test_summary(self, bundle_path, capsys):
        assert main(["summary", bundle_path]) == 0
        out = capsys.readouterr().out
        assert "2 INDs" in out
        assert "5 tuples" in out

    def test_missing_file(self, capsys):
        assert main(["summary", "/nonexistent/bundle.json"]) == 2

    def test_summary_needs_no_networkx(self, bundle_path):
        """A core install has no networkx (it is the ``analysis``
        extra), and ``repro summary`` still runs there."""
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )}
        script = (
            "import sys; sys.modules['networkx'] = None\n"
            "from repro.cli import main\n"
            f"raise SystemExit(main(['summary', {bundle_path!r}]))"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert "acyclic with 1 weakly connected component(s)" in done.stdout


class TestServeAndCall:
    @pytest.fixture
    def served(self, bundle_path):
        from repro.io import bundle_from_json
        from repro.serve import BackgroundServer, TenantRegistry

        registry = TenantRegistry()
        with open(bundle_path, encoding="utf-8") as fp:
            schema, dependencies, db = bundle_from_json(fp.read())
        registry.create("app", schema, dependencies, db=db)
        with BackgroundServer(registry) as bg:
            yield bg

    def test_call_health(self, served, capsys):
        assert main([
            "call", "/health", "--port", str(served.port),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True

    def test_call_implies_verdict_exit_codes(self, served, capsys):
        assert main([
            "call", "/tenants/app/implies",
            json.dumps({"target": "MGR[NAME] <= PERSON[NAME]"}),
            "--port", str(served.port),
        ]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] is True
        # A false verdict exits 1 so shell scripts can branch on it.
        assert main([
            "call", "/tenants/app/implies",
            json.dumps({"target": "PERSON[NAME] <= MGR[NAME]"}),
            "--port", str(served.port),
        ]) == 1
        assert json.loads(capsys.readouterr().out)["verdict"] is False

    def test_call_error_payload_exits_2(self, served, capsys):
        assert main([
            "call", "/tenants/ghost/stats", "--port", str(served.port),
        ]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == 404

    def test_call_rejects_malformed_body(self, served, capsys):
        assert main([
            "call", "/tenants/app/implies", "{not json",
            "--port", str(served.port),
        ]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_serve_rejects_malformed_tenant_spec(self, capsys):
        assert main(["serve", "--tenant", "missing-equals"]) == 2
        assert "NAME=BUNDLE.json" in capsys.readouterr().err

    def test_serve_rejects_an_unroutable_tenant_name(
        self, bundle_path, capsys
    ):
        assert main(["serve", "--tenant", f"a/b={bundle_path}"]) == 2
        assert "'a/b' must match [A-Za-z0-9._~-]+" in capsys.readouterr().err


class TestDiscover:
    @pytest.fixture
    def data_bundle_path(self, tmp_path):
        payload = {
            "schema": {"R": ["A", "B"], "S": ["A", "B"]},
            "database": {
                "R": [[1, 10], [2, 20]],
                "S": [[1, 10], [2, 20], [3, 30]],
            },
        }
        path = tmp_path / "data.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_human_report(self, data_bundle_path, capsys):
        assert main(["discover", data_bundle_path]) == 0
        out = capsys.readouterr().out
        assert "discovered" in out
        assert "R[A,B] <= S[A,B]" in out
        assert "pruned-by-implication" in out

    def test_json_report(self, data_bundle_path, capsys):
        assert main(["discover", data_bundle_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "R[A,B] <= S[A,B]" in payload["inds"]
        assert payload["reduced"] is True
        assert payload["totals"]["validated"] > 0
        assert set(payload["phases"]) >= {"fd", "unary_ind", "nary_ind"}

    def test_bundle_out_round_trips(self, data_bundle_path, tmp_path, capsys):
        out_path = tmp_path / "cover.json"
        assert main([
            "discover", data_bundle_path, "--bundle-out", str(out_path)
        ]) == 0
        from repro.io import session_from_json

        session = session_from_json(out_path.read_text())
        assert session.implies("R[A] <= S[A]").verdict

    def test_classes_and_caps(self, data_bundle_path, capsys):
        assert main([
            "discover", data_bundle_path,
            "--classes", "ind", "--max-ind-arity", "1", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fds"] == []
        assert all("," not in ind.split("<=")[0] for ind in payload["inds"])

    def test_no_database_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "schema_only.json"
        path.write_text(json.dumps({"schema": {"R": ["A"]}}))
        assert main(["discover", str(path)]) == 2
        assert "no database" in capsys.readouterr().err

    def test_unknown_class_is_an_error(self, data_bundle_path, capsys):
        assert main([
            "discover", data_bundle_path, "--classes", "mvd"
        ]) == 2
        assert "unknown dependency class" in capsys.readouterr().err

    def test_no_prune_and_no_reduce(self, data_bundle_path, capsys):
        assert main([
            "discover", data_bundle_path,
            "--no-prune", "--no-reduce", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reduced"] is False
        assert payload["totals"]["pruned_by_implication"] == 0
        assert set(payload["cover"]) == set(
            payload["fds"] + payload["inds"]
        )


class TestShellDiscover:
    def test_shell_discover_reports_on_the_bundled_db(
        self, monkeypatch, capsys, bundle_path
    ):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("discover\nquit\n"))
        assert main(["shell", bundle_path]) == 0
        assert "discovered" in capsys.readouterr().out

    def test_shell_discover_without_db(self, monkeypatch, capsys, tmp_path):
        import io
        path = tmp_path / "nodb.json"
        path.write_text(json.dumps({"schema": {"R": ["A"]}}))
        monkeypatch.setattr("sys.stdin", io.StringIO("discover\nquit\n"))
        assert main(["shell", str(path)]) == 0
        assert "no database" in capsys.readouterr().err
