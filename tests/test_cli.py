"""CLI behavior: exit codes, JSON schema, determinism, bench report."""

import json
import os
import subprocess
import sys

import pytest

from allones import approx, cli, gf2
from allones.instance_io import gen_complete, gen_grid, render_instance

FEASIBLE_KEYS = {
    "feasible",
    "press",
    "sol",
    "r",
    "m",
    "g0",
    "g1",
    "boundRank",
    "boundMixedNumerator",
    "boundMixedDenominator",
}


def assert_clean_usage_error(res):
    assert res.returncode == 1
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1
    assert res.stderr.startswith("error: ")


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "allones", *args],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture
def k2_file(tmp_path):
    path = tmp_path / "k2.ao"
    path.write_text(render_instance(gen_complete(2)))
    return str(path)


@pytest.fixture
def infeasible_file(tmp_path):
    path = tmp_path / "stuck.ao"
    path.write_text("allones 1\nswitches -\non 0\n")
    return str(path)


class TestSolve:
    def test_text_output(self, k2_file):
        res = run_cli("solve", k2_file)
        assert res.returncode == 0
        assert "feasible" in res.stdout
        assert "sol: 1" in res.stdout

    def test_json_schema(self, k2_file):
        res = run_cli("solve", k2_file, "--output", "json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert set(payload) == FEASIBLE_KEYS | {"opt"}
        assert payload["feasible"] is True
        assert payload["press"] == [0]
        assert payload["sol"] == 1
        assert (payload["r"], payload["m"]) == (1, 1)
        assert payload["boundRank"] == 1
        # n + g1 - g0 = 2, so the mixed bound is the integer 1
        assert payload["boundMixedNumerator"] == 1
        assert payload["boundMixedDenominator"] == 1
        assert payload["opt"] == 1

    def test_opt_respects_exact_limit(self, k2_file):
        res = run_cli("solve", k2_file, "--output", "json", "--exact-limit", "0")
        payload = json.loads(res.stdout)
        assert set(payload) == FEASIBLE_KEYS

    def test_infeasible_exit_code(self, infeasible_file):
        res = run_cli("solve", infeasible_file, "--output", "json")
        assert res.returncode == 2
        payload = json.loads(res.stdout)
        assert payload == {"feasible": False, "r": 0, "m": 1}

    def test_exact_limit_above_walk_limit_is_rejected(self, k2_file):
        assert_clean_usage_error(run_cli("solve", k2_file, "--exact-limit", "25"))
        assert run_cli("solve", k2_file, "--exact-limit", "24").returncode == 0

    @pytest.mark.parametrize(
        "fixture, code, kernel_calls", [("k2_file", 0, 2), ("infeasible_file", 2, 1)]
    )
    def test_one_elimination_per_solve(
        self, request, monkeypatch, capsys, fixture, code, kernel_calls
    ):
        # one keyed-basis elimination of [A | b]; a feasible solve adds one
        # swapping forward pass over the null basis for the grouped echelon
        # form
        path = request.getfixturevalue(fixture)
        calls = {"solve": 0, "basis": 0, "eliminate": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(approx, "solve", counting("solve", approx.solve))
        monkeypatch.setattr(gf2, "_basis", counting("basis", gf2._basis))
        monkeypatch.setattr(gf2, "_eliminate", counting("eliminate", gf2._eliminate))
        assert cli.main(["solve", path, "--output", "json"]) == code
        # the feasible case (m = 1) also ran the exact walk
        assert ("opt" in json.loads(capsys.readouterr().out)) == (code == 0)
        assert calls == {"solve": 1, "basis": 1, "eliminate": kernel_calls - 1}

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ao"
        bad.write_text("allones 2\nswitches ++\non 00\ne 0 0\n")
        res = run_cli("solve", str(bad))
        assert res.returncode == 1
        assert "line 4" in res.stderr

    def test_missing_file(self):
        res = run_cli("solve", "/nonexistent.ao")
        assert res.returncode == 1
        assert res.stderr

    @pytest.mark.parametrize("argv", [["solve"], ["verify", "-"]], ids=["solve", "verify"])
    def test_non_utf8_file_fails_cleanly(self, tmp_path, argv):
        bad = tmp_path / "bad.ao"
        bad.write_bytes(b"\xff")
        res = run_cli(argv[0], str(bad), *argv[1:])
        assert_clean_usage_error(res)


class TestVerify:
    def test_correct_press(self, k2_file):
        res = run_cli("verify", k2_file, "0")
        assert res.returncode == 0
        assert res.stdout.strip() == "ALL ON"

    def test_empty_press_lists_every_vertex(self, k2_file):
        res = run_cli("verify", k2_file, "-")
        assert res.returncode == 2
        assert res.stdout.strip() == "STILL OFF: 0 1"

    def test_tampered_press(self, tmp_path):
        path = tmp_path / "grid.ao"
        path.write_text(render_instance(gen_grid(3, 3)))
        res = run_cli("verify", str(path), "0,1")
        assert res.returncode == 2
        assert "STILL OFF" in res.stdout

    def test_out_of_range_index(self, k2_file):
        res = run_cli("verify", k2_file, "5")
        assert res.returncode == 1

    def test_repeated_index_is_rejected(self, k2_file):
        res = run_cli("verify", k2_file, "1,1")
        assert_clean_usage_error(res)
        assert "repeats" in res.stderr


class TestGen:
    def test_grid_emits_25_vertices(self):
        res = run_cli("gen", "grid", "5", "5")
        assert res.returncode == 0
        assert res.stdout.startswith("allones 25\n")
        assert res.stdout.count("\ne ") == 40

    def test_gnp_reproducible(self):
        a = run_cli("gen", "gnp", "100", "0.05", "--seed", "1")
        b = run_cli("gen", "gnp", "100", "0.05", "--seed", "1")
        assert a.stdout == b.stdout
        assert a.returncode == 0

    def test_path_round_trips_through_solve(self, tmp_path):
        res = run_cli("gen", "path", "3")
        path = tmp_path / "p3.ao"
        path.write_text(res.stdout)
        solved = run_cli("solve", str(path))
        assert solved.returncode == 0

    def test_switch_and_state_overrides(self, tmp_path):
        res = run_cli("gen", "path", "1", "--switches", "-", "--on", "0")
        assert res.returncode == 0
        path = tmp_path / "stuck.ao"
        path.write_text(res.stdout)
        assert run_cli("solve", str(path)).returncode == 2

    def test_bad_family(self):
        assert run_cli("gen", "torus", "3").returncode == 1

    def test_bad_arity(self):
        assert run_cli("gen", "grid", "3").returncode == 1


class TestBench:
    def test_small_corpus_is_clean(self):
        res = run_cli(
            "bench", "--sizes", "6,8", "--trials", "6", "--seed", "3",
            "--output", "json",
        )
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["results"]["instances"] == 12
        assert all(v == 0 for v in report["results"]["violations"].values())
        assert report["results"]["solOverOpt"]["count"] >= 1

    def test_fixed_seed_reports_identical(self):
        args = ("bench", "--sizes", "6", "--trials", "9", "--seed", "5",
                "--output", "json")
        first = json.loads(run_cli(*args).stdout)
        second = json.loads(run_cli(*args).stdout)
        assert first["results"] == second["results"]
        assert first["config"] == second["config"]

    def test_worker_count_does_not_change_results(self):
        args = ("bench", "--sizes", "6", "--trials", "8", "--seed", "11",
                "--output", "json")
        one = json.loads(run_cli(*args).stdout)
        two = json.loads(run_cli(*args, env_extra={"ALLONES_THREADS": "2"}).stdout)
        assert one["results"] == two["results"]

    @pytest.mark.parametrize(
        "flags",
        [
            ("--sizes", "22", "--trials", "3", "--oracle-limit", "24"),
            ("--sizes", "0"),
            ("--sizes", "6,-1"),
            ("--trials", "0"),
        ],
    )
    def test_bad_flags_fail_cleanly(self, flags):
        assert_clean_usage_error(run_cli("bench", *flags))

    def test_text_report(self):
        res = run_cli("bench", "--sizes", "6", "--trials", "3", "--seed", "1")
        assert res.returncode == 0
        assert "violations: none" in res.stdout


class TestUsage:
    def test_no_command(self):
        assert run_cli().returncode == 1

    def test_unknown_command(self):
        assert run_cli("frobnicate").returncode == 1

    def test_solve_json_deterministic_bytes(self, k2_file):
        a = run_cli("solve", k2_file, "--output", "json")
        b = run_cli("solve", k2_file, "--output", "json")
        assert a.stdout == b.stdout
