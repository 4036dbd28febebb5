"""CLI behavior: exit codes, JSON schema, determinism, bench report."""

import json
import os
import random
import subprocess
import sys

import pytest

from allones import approx, bench, cli, generators, gf2, instance_io, lamps
from allones.generators import gen_complete, gen_grid, gen_random_tree
from allones.instance_io import render_instance

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

    @pytest.mark.parametrize(
        "text, flags, code, keys, presses",
        [
            ("allones 2\nswitches ++\non 11\ne 0 1\n", [], 0, FEASIBLE_KEYS | {"opt"}, 0),
            (render_instance(gen_complete(2)), [], 0, FEASIBLE_KEYS | {"opt"}, 1),
            (render_instance(gen_random_tree(300, seed=1)), [], 0, FEASIBLE_KEYS | {"opt"}, 139),
            (render_instance(gen_complete(2)), ["--exact-limit", "0"], 0, FEASIBLE_KEYS, 1),
            ("allones 1\nswitches -\non 0\n", [], 2, {"feasible", "r", "m"}, 0),
        ],
        ids=["no-press", "one-press", "many-presses", "no-opt", "infeasible"],
    )
    def test_json_bytes_are_json_dumps_indent_2(
        self, tmp_path, capsys, text, flags, code, keys, presses
    ):
        # solve writes its JSON without the json module: the bytes must be
        # those of json.dumps(payload, indent=2) for every payload shape
        path = tmp_path / "inst.ao"
        path.write_text(text)
        assert cli.main(["solve", str(path), "--output", "json", *flags]) == code
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert set(payload) == keys
        assert len(payload.get("press", ())) == presses
        assert json.dumps(payload, indent=2) + "\n" == out

    def test_opt_respects_exact_limit(self, k2_file):
        res = run_cli("solve", k2_file, "--output", "json", "--exact-limit", "0")
        payload = json.loads(res.stdout)
        assert set(payload) == FEASIBLE_KEYS

    def test_infeasible_exit_code(self, infeasible_file):
        res = run_cli("solve", infeasible_file, "--output", "json")
        assert res.returncode == 2
        payload = json.loads(res.stdout)
        assert payload == {"feasible": False, "r": 0, "m": 1}

    @pytest.mark.parametrize(
        "text, bound, pair",
        [
            # n + g1 - g0 = 1 + 0 - 0: the bound is a half
            ("allones 1\nswitches -\non 1\n", "1/2", [1, 2]),
            # n + g1 - g0 = 25 + 5 - 0: the bound is whole
            (render_instance(gen_grid(5, 5)), "15", [15, 1]),
        ],
        ids=["odd", "even"],
    )
    def test_mixed_bound_in_lowest_terms(self, tmp_path, text, bound, pair):
        path = tmp_path / "inst.ao"
        path.write_text(text)
        assert f"bound(mixed): {bound}" in run_cli("solve", str(path)).stdout.splitlines()
        payload = json.loads(run_cli("solve", str(path), "--output", "json").stdout)
        assert [payload["boundMixedNumerator"], payload["boundMixedDenominator"]] == pair

    def test_exact_limit_above_walk_limit_is_rejected(self, k2_file):
        assert_clean_usage_error(run_cli("solve", k2_file, "--exact-limit", "25"))
        assert run_cli("solve", k2_file, "--exact-limit", "24").returncode == 0

    @pytest.mark.parametrize("limit", ["-1", "-4"])
    def test_negative_exact_limit_is_rejected(self, k2_file, limit):
        assert_clean_usage_error(run_cli("solve", k2_file, "--exact-limit", limit))

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

    def test_solve_path_mirrors_only_the_read_out(self, tmp_path, monkeypatch, capsys):
        # the parse builds the rows in the layout the elimination reads, so
        # the only mirrors are the m + 1 solutions read out in vertex order
        path = tmp_path / "tree.ao"
        path.write_text(render_instance(gen_random_tree(300, 0)))
        mirrors = []

        def spy(x, nbytes):
            mirrors.append(nbytes)
            return mirror(x, nbytes)

        def packed_only(a, b):
            # a natural BitMat would be mirrored row by row
            assert not isinstance(a, gf2.BitMat), "the solve path built the natural system"
            return solve(a, b)

        mirror, solve = gf2._mirror, approx.solve
        monkeypatch.setattr(gf2, "_mirror", spy)
        monkeypatch.setattr(approx, "solve", packed_only)
        assert cli.main(["solve", str(path), "--output", "json"]) == 0
        m = json.loads(capsys.readouterr().out)["m"]
        assert m > 0 and len(mirrors) <= m + 1

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


class TestFileBytes:
    """solve and verify read the file as bytes; the bulk parse takes them
    as text mode would give them, and only the line parser decodes."""

    def test_crlf_copy_gives_the_same_answer(self, tmp_path, monkeypatch, capsys):
        text = render_instance(gen_random_tree(2000, seed=1))
        plain, crlf = tmp_path / "tree.ao", tmp_path / "tree-crlf.ao"
        plain.write_bytes(text.encode())
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        outs = []
        for path in (plain, crlf):
            assert cli.main(["solve", str(path), "--output", "json"]) == 0
            outs.append(capsys.readouterr())
        assert outs[0] == outs[1]
        assert outs[0].err == ""

        # CRLF and lone CR end lines as in text mode, so the CRLF copy and
        # one with lone CRs both take the bulk path
        def refuse(text):
            raise AssertionError("the line parser was reached")

        monkeypatch.setattr(instance_io, "_parse_lines", refuse)
        for data in (text.replace("\n", "\r\n"), text.replace("\n", "\r")):
            assert instance_io.parse_instance(data.encode()) == gen_random_tree(2000, seed=1)

    # the messages text mode gave: the byte positions count the raw bytes,
    # CRs included, before any newline is translated
    @pytest.mark.parametrize(
        "data, message",
        [
            (
                b"allones 3\r\nswitches +-+\r\non 010\r\ne 0 1\r\ne 1 \xff2\r\n",
                "'utf-8' codec can't decode byte 0xff in position 44: invalid start byte",
            ),
            (
                b"allones 3\r\nswitches +-+\r\non 010\r\n" + b"# c\r\n" * 5000 + b"\xe9x\n",
                "'utf-8' codec can't decode byte 0xe9 in position 25033: invalid continuation byte",
            ),
        ],
        ids=["short", "past-a-slab"],
    )
    @pytest.mark.parametrize("argv", [["solve"], ["verify", "-"]], ids=["solve", "verify"])
    def test_bad_utf8_after_crlf_lines_names_its_byte(self, tmp_path, capsys, data, message, argv):
        path = tmp_path / "bad.ao"
        path.write_bytes(data)
        assert cli.main([argv[0], str(path), *argv[1:]]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestVertexLimit:
    @pytest.mark.parametrize("argv", [["solve"], ["verify", "-"]], ids=["solve", "verify"])
    @pytest.mark.parametrize("whole", [False, True], ids=["header-only", "three-lines"])
    def test_count_over_the_limit_fails_unbuilt(self, tmp_path, monkeypatch, capsys, argv, whole):
        def refuse(*args, **kwargs):
            raise AssertionError("an instance was built")

        monkeypatch.setattr(instance_io, "Instance", refuse)
        n = instance_io.VERTEX_LIMIT + 1
        text = f"allones {n}\n"
        if whole:
            text += f"switches {'+' * n}\non {'0' * n}\n"
        path = tmp_path / "big.ao"
        path.write_text(text)
        assert cli.main([argv[0], str(path), *argv[1:]]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        if whole:
            assert err == (
                f"error: line 1: vertex count {n} is above the limit of"
                f" {instance_io.VERTEX_LIMIT}\n"
            )
        else:
            assert err == "error: line 2: unexpected end of input, expected the 'switches' line\n"


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

    @pytest.mark.parametrize(
        "seed, reason",
        [("-1", "is below 0"), (str(2**64), f"exceeds {2**64 - 1}")],
        ids=["negative", "two-to-the-64"],
    )
    @pytest.mark.parametrize(
        "argv", [["gen", "tree", "6"], ["bench", "--sizes", "4", "--trials", "1"]], ids=["gen", "bench"]
    )
    def test_seed_outside_64_bits_is_refused(self, capsys, argv, seed, reason):
        # the PRNG keeps 64 bits of state, so each of these would alias a
        # seed in range: -1 to 2**64 - 1, 2**64 to 0
        assert cli.main([*argv, "--seed", seed]) == 1
        assert capsys.readouterr() == ("", f"error: --seed {seed} {reason}\n")

    def test_largest_seed_is_accepted(self, capsys):
        # the bytes this seed, and -1 with it, gave before the range check
        assert cli.main(["gen", "tree", "6", "--seed", str(2**64 - 1)]) == 0
        assert capsys.readouterr() == (
            "allones 6\nswitches ++++++\non 000000\ne 0 1\ne 1 2\ne 1 3\ne 1 5\ne 2 4\n", ""
        )
        assert cli.main(["bench", "--sizes", "4", "--trials", "2", "--seed", str(2**64 - 1)]) == 0
        assert "seed 18446744073709551615" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--switches", "+-"], "--switches: switch string has length 2, expected 4"),
            (["--switches", "+x+-"], "--switches: switch character 'x' is not '+' or '-'"),
            (["--on", "0101", "--switches", "+-+"], "--switches: switch string has length 3, expected 4"),
            (["--on", "01"], "--on: state string has length 2, expected 4"),
            (["--on", "01 1"], "--on: state string may contain only '0' and '1'"),
        ],
        ids=["switches-length", "switches-character", "switches-first", "on-length", "on-character"],
    )
    def test_bad_override_names_its_flag(self, capsys, flags, message):
        # the line parser's checks and messages, after the flag
        assert cli.main(["gen", "grid", "2", "2", *flags]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_bad_family(self):
        assert run_cli("gen", "torus", "3").returncode == 1

    def test_bad_arity(self):
        assert run_cli("gen", "grid", "3").returncode == 1

    def test_path_of_100000_is_within_the_limit(self):
        res = run_cli("gen", "path", "100000")
        assert res.returncode == 0
        assert res.stdout.count("\ne ") == 99999

    @pytest.mark.parametrize(
        "params",
        [
            ["path", "100000000"],
            ["path", "500001"],
            ["cycle", "500001"],
            ["tree", "500001"],
            ["complete", "1414"],
            ["grid", "578", "578"],
            ["gnp", "2000", "0.5"],
            ["gnp", "1" + "0" * 400, "0.5"],
            # one draw per vertex pair, however few edges p leads to expect
            ["gnp", "1414", "0.00001"],
        ],
    )
    def test_oversized_instance_is_refused_unbuilt(self, monkeypatch, capsys, params):
        def refuse(*args):
            raise AssertionError("a generator was reached")

        for name in ("gen_path", "gen_cycle", "gen_complete", "gen_grid",
                     "gen_random_gnp", "gen_random_tree"):
            monkeypatch.setattr(generators, name, refuse)
        assert cli.main(["gen", *params]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f" has more than {generators.GEN_LIMIT} vertices plus edges\n")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "params",
        [["path", "500000"], ["cycle", "500000"], ["tree", "500000"],
         ["complete", "1413"], ["grid", "577", "577"], ["gnp", "1413", "1"]],
    )
    def test_instance_at_the_limit_is_built(self, monkeypatch, params):
        built = []
        for name in ("gen_path", "gen_cycle", "gen_complete", "gen_grid",
                     "gen_random_gnp", "gen_random_tree"):
            monkeypatch.setattr(generators, name, lambda *args: built.append(args) or gen_complete(2))
        assert cli.main(["gen", *params]) == 0
        assert len(built) == 1

    @pytest.mark.parametrize(
        "params, message",
        [
            (["grid", "-1000", "-1000"], "grid sides must be >= 1"),
            (["complete", "-2000"], "an instance needs at least one vertex"),
            (["gnp", "-5000", "0.5"], "an instance needs at least one vertex"),
        ],
    )
    def test_negative_count_meets_the_generator_check(self, capsys, params, message):
        # the size formulas are quadratic in the counts, so a negative
        # count must not be blamed on the size limit
        assert cli.main(["gen", *params]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestGenAndVertexLimit:
    # gen builds up to GEN_LIMIT vertices plus edges, but solve and verify
    # read at most VERTEX_LIMIT vertices; gen's help says so
    def test_gen_help_names_the_vertex_limit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen", "--help"])
        assert exc.value.code == 0
        assert f"read at most {instance_io.VERTEX_LIMIT:,} vertices" in capsys.readouterr().out

    def test_gen_output_over_the_limit_fails_to_solve(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(instance_io, "VERTEX_LIMIT", 40)
        for n, code in ((40, 0), (41, 1)):
            assert cli.main(["gen", "path", str(n)]) == 0
            path = tmp_path / f"path{n}.ao"
            path.write_text(capsys.readouterr().out)
            assert cli.main(["solve", str(path)]) == code
            out, err = capsys.readouterr()
            if code:
                assert out == ""
                assert err == "error: line 1: vertex count 41 is above the limit of 40\n"
            else:
                assert out.startswith("feasible\npress: ") and err == ""


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

    def test_results_are_pinned(self):
        # pins the seed draw order, size first and then trial: drawing
        # trial first gives 35 feasible instances here
        report = bench.run_bench([8, 12], 30, seed=1, oracle_limit=12)
        assert report["results"] == {
            "instances": 60,
            "feasible": 30,
            "infeasible": 30,
            "oracleChecked": 30,
            "violations": dict.fromkeys(bench.VIOLATION_KINDS, 0),
            "solOverOpt": {"count": 30, "mean": 1.0, "max": 1.0, "p50": 1.0, "p90": 1.0},
        }

    @staticmethod
    def _doctor_press(monkeypatch, make_bits):
        real = bench.solve_approx

        def doctored(inst):
            r, sol = real(inst)
            if sol is None:
                return r, None
            n = sol.press.n
            press = gf2.BitVec(n, make_bits(sol.press.bits, n))
            return r, lamps.Solution(press, sol.decomposition)

        monkeypatch.setattr(bench, "solve_approx", doctored)

    @staticmethod
    def _counts(**nonzero):
        return {kind: nonzero.get(kind, 0) for kind in bench.VIOLATION_KINDS}

    def _violations(self):
        return bench.run_bench([8, 12], 30, seed=1, oracle_limit=12)["results"][
            "violations"
        ]

    def test_flipped_press_bit_is_caught(self, monkeypatch, capsys):
        self._doctor_press(monkeypatch, lambda bits, n: bits ^ 1)
        assert self._violations() == self._counts(
            feasibility=30, mixedBound=14, optSandwich=14
        )
        assert cli.main(["bench", "--sizes", "8", "--trials", "3", "--seed", "1"]) == 1
        assert "violations: feasibility=1, mixedBound=1" in capsys.readouterr().out

    def test_all_ones_press_is_caught(self, monkeypatch):
        self._doctor_press(monkeypatch, lambda bits, n: (1 << n) - 1)
        assert self._violations() == self._counts(
            feasibility=30, rankBound=10, mixedBound=30, partBound=10, optSandwich=30
        )

    def test_missed_solution_is_caught(self, monkeypatch):
        real = bench.solve_approx
        monkeypatch.setattr(bench, "solve_approx", lambda inst: (real(inst)[0], None))
        assert self._violations() == self._counts(oracleAgreement=30)

    def test_wrong_exact_opt_is_caught(self, monkeypatch):
        real = bench.exact_by_nullspace

        def doctored(gamma, basis):
            opt, vec = real(gamma, basis)
            return opt + 1, vec

        monkeypatch.setattr(bench, "exact_by_nullspace", doctored)
        assert self._violations() == self._counts(oracleAgreement=30)

    @pytest.mark.parametrize(
        "flags",
        [
            ("--sizes", "22", "--trials", "3", "--oracle-limit", "24"),
            ("--sizes", "0"),
            ("--sizes", "6,-1"),
            ("--trials", "0"),
            ("--oracle-limit", "-1"),
        ],
    )
    def test_bad_flags_fail_cleanly(self, flags):
        assert_clean_usage_error(run_cli("bench", *flags))

    def test_each_instance_packs_its_rows_once(self, monkeypatch, capsys):
        # every G(n, p) draw at these sizes takes the dense row build; the
        # solve and the replay of a feasible answer share its rows
        built = []
        mirror = gf2._or_mirrored
        monkeypatch.setattr(gf2, "_or_mirrored", lambda rows, cols: built.append(cols) or mirror(rows, cols))
        assert cli.main(["bench", "--sizes", "200,256", "--trials", "3", "--oracle-limit", "0"]) == 0
        assert "instances: 6 (feasible " in capsys.readouterr().out
        assert built == [200] * 3 + [256] * 3

    def test_text_report(self):
        res = run_cli("bench", "--sizes", "6", "--trials", "3", "--seed", "1")
        assert res.returncode == 0
        assert "violations: none" in res.stdout

    def test_oversized_size_is_refused_undrawn(self, monkeypatch, capsys):
        # bench draws its G(n, p) as gen gnp does, once per vertex pair, so
        # the GEN_LIMIT rule bounds the total over every trial of every size:
        # one trial of n = 1413 fits, 1414 does not; a long --trials is cut
        # short in the message
        class Reached(Exception):
            pass

        def refuse(*args):
            raise AssertionError("an instance was drawn")

        def stub(sizes, *args, **kwargs):
            raise Reached(sizes)

        monkeypatch.setattr(bench, "gen_random_mixed", refuse)
        monkeypatch.setattr(bench, "run_bench", stub)
        for flags in (["--sizes", "8,1414"],
                      ["--sizes", "1413", "--trials", "2"],
                      ["--sizes", "1000,1000", "--trials", "1"],
                      ["--sizes", "8", "--trials", "1000000"],
                      ["--sizes", "8", "--trials", "9" * 4000]):
            assert cli.main(["bench", *flags]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err.endswith(f" has more than {bench.GEN_LIMIT} vertices plus vertex pairs\n")
            assert len(err.splitlines()) == 1 and len(err) < 200
        with pytest.raises(Reached) as reached:
            cli.main(["bench", "--sizes", "1413", "--trials", "1"])
        assert reached.value.args == ([1413],)


class TestUsage:
    def test_no_command(self):
        assert run_cli().returncode == 1

    def test_unknown_command(self):
        assert run_cli("frobnicate").returncode == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "FILE", "--exact-limit", "abc"],
            ["bench", "--trials", "x"],
            ["solve", "FILE", "--bogus"],
            ["solve"],
            [],
        ],
        ids=["bad-int", "bad-trials", "unknown-flag", "no-file", "no-command"],
    )
    def test_argparse_faults_fail_cleanly(self, k2_file, argv):
        argv = [k2_file if a == "FILE" else a for a in argv]
        assert_clean_usage_error(run_cli(*argv))

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "FILE", ",".join(["1"] * 2999 + ["x"])],
            ["bench", "--sizes", ",".join(["8"] * 2999 + ["x"])],
            ["gen", "f" * 3000, "5"],
            ["solve", "FILE", "--exact-limit", "9" * 5000],
            ["solve", "FILE", "--exact-limit", "9" * 4000],
            ["verify", "FILE", "9" * 4000],
        ],
        ids=["press", "sizes", "family", "argparse-int", "exact-limit", "press-index"],
    )
    def test_long_input_gives_short_error(self, k2_file, argv):
        argv = [k2_file if a == "FILE" else a for a in argv]
        res = run_cli(*argv)
        assert_clean_usage_error(res)
        assert len(res.stderr) < 200

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["solve", "FILE", "--exact-limit", "9" * 300], "exceeds 24"),
            (["solve", "FILE", "--exact-limit", "-" + "9" * 300], "is below 0"),
            (["bench", "--trials", "-" + "9" * 300], "is below 1"),
            (["bench", "--oracle-limit", "9" * 300], "exceeds 20"),
            (["bench", "--oracle-limit", "-" + "9" * 300], "is below 0"),
            (["verify", "FILE", "9" * 300], "out of range for length 2"),
            (["verify", "FILE", "0," + "9" * 300], "out of range for length 2"),
        ],
        ids=["exact-limit-high", "exact-limit-low", "trials-low", "oracle-high", "oracle-low",
             "press-index", "press-index-after-0"],
    )
    def test_long_flag_value_keeps_its_reason(self, k2_file, argv, reason):
        # the value is clipped, not the reason after it
        res = run_cli(*[k2_file if a == "FILE" else a for a in argv])
        assert_clean_usage_error(res)
        assert len(res.stderr) < 200
        assert res.stderr.endswith(f"... {reason}\n")

    # more digits than int() converts (4300 by default): each command
    # reports the value as out of range, in its own wording
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "FILE", "9" * 5000], "index " + "9" * 20 + "... out of range for length 2"),
            (["verify", "FILE", "0,-" + "9" * 5000], "index -" + "9" * 19 + "... out of range for length 2"),
            (
                ["bench", "--sizes", "9" * 5000],
                "--sizes '" + "9" * 40 + "...' with --trials 100 has more than 1000000"
                " vertices plus vertex pairs",
            ),
            (["bench", "--sizes", "8,-" + "9" * 5000], "--sizes '8,-" + "9" * 37 + "...' lists a size below 1"),
            (["gen", "path", "9" * 5000], "path " + "9" * 40 + "... has more than 1000000 vertices plus edges"),
            (["gen", "path", "-" + "9" * 5000], "an instance needs at least one vertex"),
            (["gen", "grid", "0", "9" * 5000], "grid sides must be >= 1"),
        ],
        ids=["press-index", "negative-press-index", "sizes", "negative-size", "gen-count",
             "negative-gen-count", "gen-count-beside-zero"],
    )
    def test_overlong_integer_is_out_of_range(self, k2_file, capsys, argv, message):
        argv = [k2_file if a == "FILE" else a for a in argv]
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("allones " + "9" * 5000 + "\n", "line 1: vertex count " + "9" * 40 + "... is above the limit of 30000"),
            (
                "allones 2\nswitches ++\non 00\ne 0 " + "9" * 5000 + "\n",
                "line 4: edge (0, " + "9" * 20 + "...) out of range for 2 vertices",
            ),
        ],
        ids=["count", "endpoint"],
    )
    def test_overlong_integer_in_a_file_is_out_of_range(self, tmp_path, capsys, text, message):
        path = tmp_path / "long.ao"
        path.write_text(text)
        assert cli.main(["solve", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_short_values_are_echoed_whole(self, k2_file):
        assert run_cli("bench", "--sizes", "8,x").stderr == (
            "error: --sizes '8,x' is not a comma-separated integer list\n"
        )
        assert run_cli("verify", k2_file, "0,x").stderr == (
            "error: press vector '0,x' is not a comma-separated index list\n"
        )

    def test_import_adds_no_heavy_stdlib_module(self, k2_file):
        # dataclasses pulls inspect, ast, dis and tokenize in, fractions
        # pulls decimal: each would add to the start of every allones call.
        # json and the bench module serve only `allones bench`, so neither
        # the import nor a JSON solve may load them. Only what allones adds
        # counts, since site may preload typing before allones is imported
        code = (
            "import contextlib, io, sys; before = set(sys.modules); import allones.cli\n"
            "heavy = {'dataclasses', 'fractions', 'decimal', 'typing', 'json', 'allones.bench'}\n"
            "print(sorted(heavy & (set(sys.modules) - before)))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    allones.cli.main(['solve', {k2_file!r}, '--output', 'json'])\n"
            "print(sorted(heavy & (set(sys.modules) - before)))\n"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "[]\n[]\n"

    @pytest.mark.parametrize(
        "argv",
        [["solve", "FILE", "--output", "json"], ["gen", "grid", "5", "5"]],
        ids=["solve-json", "gen"],
    )
    def test_closed_stdout_exits_1_without_a_message(self, k2_file, argv):
        # the reader closed the pipe before anything was written: no
        # BrokenPipeError traceback on stderr, only exit status 1
        argv = [k2_file if a == "FILE" else a for a in argv]
        proc = subprocess.Popen(
            [sys.executable, "-m", "allones", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert err == b""

    def test_help_exits_zero(self):
        res = run_cli("solve", "-h")
        assert res.returncode == 0
        assert res.stdout.startswith("usage: allones solve")

    def test_solve_json_deterministic_bytes(self, k2_file):
        a = run_cli("solve", k2_file, "--output", "json")
        b = run_cli("solve", k2_file, "--output", "json")
        assert a.stdout == b.stdout


class TestIntegerInputs:
    """Every integer flag and gen parameter fails, if it fails, in the
    command's own words: one error line naming the flag or parameter."""

    # where each value goes (V), and the words any error about it names
    SWEEP = {
        "solve --exact-limit": (["solve", "FILE", "--exact-limit", "V"], ("--exact-limit",)),
        "bench --sizes": (["bench", "--sizes", "V", "--trials", "2"], ("--sizes",)),
        "bench --trials": (["bench", "--sizes", "4", "--trials", "V"], ("--trials",)),
        "bench --seed": (["bench", "--sizes", "4", "--trials", "2", "--seed", "V"], ("--seed",)),
        "bench --oracle-limit": (
            ["bench", "--sizes", "4", "--trials", "2", "--oracle-limit", "V"],
            ("--oracle-limit",),
        ),
        "gen --seed": (["gen", "tree", "5", "--seed", "V"], ("--seed",)),
        **{
            f"gen {family} N": (["gen", family, "V"], (family, "vertex"))
            for family in ("path", "cycle", "complete", "tree")
        },
        "gen grid W": (["gen", "grid", "V", "3"], ("grid",)),
        "gen grid H": (["gen", "grid", "3", "V"], ("grid",)),
        "gen gnp N": (["gen", "gnp", "V", "0.5"], ("gnp", "vertex")),
        "gen gnp P": (["gen", "gnp", "10", "V"], ("gnp", "probability")),
    }

    @staticmethod
    def values(rng):
        """An over-long, a non-numeric, a negative and a float-like value."""
        digits = "".join(rng.choices("0123456789", k=rng.randint(4301, 6000)))
        return [
            rng.choice(["", "-", "+"]) + str(rng.randint(1, 9)) + digits,
            "".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=rng.randint(1, 8))),
            f"-{rng.randint(1, 10**6)}",
            rng.choice(["{}.{}", "{}e-{}", "-{}.{}"]).format(rng.randint(0, 99), rng.randint(0, 9)),
        ]

    @staticmethod
    def valid_output(command, out):
        if command == "solve":
            return out.startswith("feasible\n")
        if command == "bench":
            return out.startswith("sizes ") and "violations: none\n" in out
        return render_instance(instance_io.parse_instance(out)) == out

    @pytest.mark.parametrize("seed", [1, 2])
    def test_seeded_sweep(self, k2_file, capsys, seed):
        rng = random.Random(seed)
        faults = []
        for case, (template, names) in self.SWEEP.items():
            for value in self.values(rng):
                argv = [k2_file if a == "FILE" else value if a == "V" else a for a in template]
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                out, err = capsys.readouterr()
                if code == 0 and err == "" and self.valid_output(argv[0], out):
                    continue
                line = err.rstrip("\n")
                if not (
                    code == 1
                    and out == ""
                    and err.count("\n") == 1
                    and line.startswith("error: ")
                    and any(name in line for name in names)
                    and "invalid literal" not in line
                    and "could not convert" not in line
                ):
                    faults.append((case, value[:20], code, err[:120]))
        assert faults == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", "FILE", "--exact-limit", "9" * 5000], "--exact-limit " + "9" * 20 + "... exceeds 24"),
            (["bench", "--oracle-limit", "-" + "9" * 5000], "--oracle-limit -" + "9" * 19 + "... is below 0"),
            (
                ["bench", "--trials", "9" * 5000],
                "--sizes '8,10,12' with --trials " + "9" * 20 + "... has more than 1000000"
                " vertices plus vertex pairs",
            ),
            (["gen", "path", "x"], "path N 'x' is not an integer"),
            (["gen", "gnp", "10", "x"], "gnp P 'x' is not a number"),
            (["gen", "grid", "3", "2.5"], "grid H '2.5' is not an integer"),
        ],
        ids=["exact-limit", "oracle-limit", "trials", "gen-count", "gen-probability", "gen-side"],
    )
    def test_message_in_the_commands_words(self, k2_file, capsys, argv, message):
        assert cli.main([k2_file if a == "FILE" else a for a in argv]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_long_endpoint_is_clipped_before_its_reason(self, tmp_path, capsys):
        # int() converts 4000 digits; the message still ends in its reason
        path = tmp_path / "long.ao"
        path.write_text("allones 2\nswitches ++\non 00\ne 0 " + "9" * 4000 + "\n")
        assert cli.main(["solve", str(path)]) == 1
        assert capsys.readouterr() == (
            "", "error: line 4: edge (0, " + "9" * 20 + "...) out of range for 2 vertices\n"
        )

    def test_long_indices_are_out_of_range_not_repeated(self, k2_file, capsys):
        # both read as their first 100 digits, which are equal
        press = "9" * 5000 + "," + "9" * 4999 + "8"
        assert cli.main(["verify", k2_file, press]) == 1
        assert capsys.readouterr() == ("", "error: index " + "9" * 20 + "... out of range for length 2\n")


# per subcommand, argv after the command name: valid flags, help, an
# unknown flag, a bad int, a missing positional or value, an extra
# positional (gen's params take any number, so its "extra" parses); and
# for solve the other argv forms argparse reads: "--flag=value", an
# abbreviated flag, "--" before a positional, help after one, and
# unknown flags among valid ones.  A pure literal: tools/argv_digest.py
# reads it without importing this module
PARSE_CASES = {
    "solve": {
        "valid": ["k2.ao", "--exact-limit", "3", "--output", "json"],
        "defaults": ["k2.ao"],
        "help": ["-h"],
        "unknown-flag": ["k2.ao", "--bogus"],
        "bad-int": ["k2.ao", "--exact-limit", "x"],
        "bad-choice": ["k2.ao", "--output", "xml"],
        "missing": [],
        "extra": ["k2.ao", "more"],
        "equals-form": ["k2.ao", "--output=json"],
        "abbreviated-flag": ["k2.ao", "--exact", "3"],
        "dash-dash": ["--", "k2.ao"],
        "help-after-file": ["k2.ao", "-h"],
        "unknown-between": ["k2.ao", "--output", "json", "--bogus", "--exact-limit", "3"],
        "two-unknown": ["k2.ao", "--bogus", "--exact-limit", "3", "--also-bogus"],
    },
    "verify": {
        "valid": ["k2.ao", "0,1"],
        "help": ["--help"],
        "unknown-flag": ["k2.ao", "0", "--bogus"],
        "missing": ["k2.ao"],
        "extra": ["k2.ao", "0", "more"],
    },
    "gen": {
        "valid": ["grid", "5", "5", "--seed", "3", "--switches", "+-", "--on", "01"],
        "help": ["-h"],
        "unknown-flag": ["path", "4", "--bogus"],
        "bad-int": ["tree", "9", "--seed", "x"],
        "missing": [],
        "extra": ["grid", "5", "5", "6"],
    },
    "bench": {
        "valid": ["--sizes", "8,9", "--trials", "3", "--seed", "1", "--oracle-limit", "5"],
        "defaults": [],
        "help": ["-h"],
        "unknown-flag": ["--bogus"],
        "bad-int": ["--trials", "x"],
        "missing": ["--sizes"],
        "extra": ["more"],
    },
}


class TestParserBuild:
    """A call that names a command builds that command's parser alone,
    and parses argv exactly as the full parser does."""

    @staticmethod
    def outcome(parse, argv, capsys):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = exc.code
        out, err = capsys.readouterr()
        return result, out, err

    @pytest.mark.parametrize(
        "argv",
        [[cmd, *rest] for cmd, cases in PARSE_CASES.items() for rest in cases.values()],
        ids=[f"{cmd}-{case}" for cmd, cases in PARSE_CASES.items() for case in cases],
    )
    def test_one_command_parser_parses_like_the_full_one(self, argv, capsys):
        full = self.outcome(cli._build_parser().parse_args, argv, capsys)
        if not isinstance(full[0], int):
            # the full parser's subparsers action alone stores the command
            # name, which nothing reads; every other attribute must agree
            assert vars(full[0]).pop("command") == argv[0]
        assert self.outcome(cli._parse_args, argv, capsys) == full

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "FILE", "--output", "json"],
            ["verify", "FILE", "0"],
            ["gen", "grid", "2", "2"],
            ["bench", "--sizes", "4", "--trials", "1"],
        ],
        ids=["solve", "verify", "gen", "bench"],
    )
    def test_a_valid_command_builds_no_full_parser(self, argv, k2_file, monkeypatch, capsys):
        def refuse():
            raise AssertionError("built the full parser")

        monkeypatch.setattr(cli, "_build_parser", refuse)
        assert cli.main([k2_file if a == "FILE" else a for a in argv]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "argv, leftover",
        [
            (["solve", "FILE", "--bogus"], "--bogus"),
            (["verify", "FILE", "0", "--bogus"], "--bogus"),
            (["gen", "path", "4", "--bogus"], "--bogus"),
            (["solve", "FILE", "--bogus", "--output", "json", "--also-bogus"],
             "--bogus --also-bogus"),
        ],
        ids=["solve", "verify", "gen", "solve-two"],
    )
    def test_leftover_arguments_are_named_by_the_full_parser(self, argv, leftover, k2_file, capsys):
        # one line, under the top-level prog, naming every leftover in order
        with pytest.raises(SystemExit) as exc:
            cli.main([k2_file if a == "FILE" else a for a in argv])
        assert exc.value.code == 1
        assert capsys.readouterr() == ("", f"error: allones: unrecognized arguments: {leftover}\n")

    def test_solve_builds_no_other_parser(self, k2_file, monkeypatch, capsys):
        def refuse(sub):
            raise AssertionError("solve built another command's parser")

        for name in ("verify", "gen", "bench"):
            monkeypatch.setitem(cli._COMMANDS, name, refuse)
        assert cli.main(["solve", k2_file, "--output", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["feasible"] is True


class TestModuleSplit:
    """gen and bench live in their own modules, which solve and verify never load."""

    def test_solve_and_verify_load_no_gen_or_bench_code(self, k2_file):
        code = (
            "import contextlib, io, sys; import allones.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    allones.cli.main(['solve', {k2_file!r}, '--output', 'json'])\n"
            f"    allones.cli.main(['verify', {k2_file!r}, '0'])\n"
            "names = {'SplitMix64', 'gen_grid', 'run_bench', '_cmd_gen', '_cmd_bench'}\n"
            "print(sorted(m for m, mod in list(sys.modules.items())\n"
            "             if m.split('.')[0] == 'allones' and names & set(vars(mod))))\n"
            "print(sorted({'allones.bench', 'allones.generators'} & set(sys.modules)))\n"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "[]\n[]\n"

    def test_package_exports_are_pinned_and_resolve(self):
        import allones

        assert allones.__all__ == [
            "BitMat", "BitVec", "Instance", "ParseError", "Solution", "SwitchType",
            "build_system", "exact_by_nullspace", "exact_by_press_enumeration",
            "gen_complete", "gen_cycle", "gen_grid", "gen_path", "gen_random_gnp",
            "gen_random_tree", "is_all_on", "parse_instance", "render_instance",
            "simulate_presses", "solve", "solve_approx", "solve_from_decomposition",
        ]
        for name in allones.__all__:
            assert getattr(allones, name) is not None
        assert allones.gen_grid is generators.gen_grid
        with pytest.raises(AttributeError):
            allones.SplitMix64
        namespace: dict = {}
        exec("from allones import *", namespace)
        assert {k: v for k, v in namespace.items() if k != "__builtins__"} == {
            name: getattr(allones, name) for name in allones.__all__
        }

    def test_package_import_loads_no_cli(self):
        code = (
            "import sys; import allones\n"
            "print(sorted({'allones.cli', 'allones.generators', 'argparse'} & set(sys.modules)))\n"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "[]\n"
