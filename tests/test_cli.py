import argparse
import inspect
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import imbalattice
from imbalattice import (
    NotALattice,
    count_universe,
    enumerate_universe,
    format_sequence,
    hasse,
    hasse_dot,
    top,
    tree_dot,
    tree_from_sequence,
    validate,
)
import imbalattice.verify
from imbalattice.cli import main
from imbalattice.verify import CHECKS, run_checks


# Every CLI output the benchmark checks against, keyed by its argument line.
REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "reference" / "cli.json").read_text()
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOutputs:
    def test_meet(self, capsys):
        code, out, _ = run(capsys, "meet", "2,2,2,3,4,5,5", "1,3,3,4,4,4,4")
        assert (code, out) == (0, "2,2,2,4,4,4,4\n")

    def test_join(self, capsys):
        code, out, _ = run(capsys, "join", "2,2,2,3,4,5,5", "1,3,3,4,4,4,4")
        assert (code, out) == (0, "1,3,3,3,4,5,5\n")

    @pytest.mark.parametrize(
        "left, right, expected",
        [
            ("1,2,3,4,4", "1,2,3,4,4", "equal"),
            ("2,2,2,3,3", "1,3,3,3,3", "more-balanced"),
            ("1,3,3,3,3", "2,2,2,3,3", "less-balanced"),
            ("2,2,2,3,4,5,5", "1,3,3,4,4,4,4", "incomparable"),
        ],
    )
    def test_compare_words(self, capsys, left, right, expected):
        code, out, _ = run(capsys, "compare", left, right)
        assert (code, out) == (0, expected + "\n")

    def test_enumerate_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "7", "--count")
        assert (code, out) == (0, "9\n")

    def test_enumerate_lines(self, capsys):
        code, out, _ = run(capsys, "enumerate", "4")
        assert (code, out) == (0, "1,2,3,3\n2,2,2,2\n")

    def test_enumerate_json(self, capsys):
        code, out, _ = run(capsys, "enumerate", "4", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"n": 4, "nodes": [[1, 2, 3, 3], [2, 2, 2, 2]]}

    def test_hasse_json(self, capsys):
        code, out, _ = run(capsys, "hasse", "5")
        assert code == 0
        assert json.loads(out) == {
            "n": 5,
            "nodes": [[1, 2, 3, 4, 4], [1, 3, 3, 3, 3], [2, 2, 2, 3, 3]],
            "covers": [[1, 0], [2, 1]],
        }

    def test_hasse_dot_file(self, capsys, tmp_path):
        target = tmp_path / "lattice.dot"
        code, out, _ = run(capsys, "hasse", "5", "--dot", str(target))
        assert code == 0
        assert out == ""  # dot only: results go to the file, not stdout
        assert target.read_text() == hasse_dot(hasse(5))

    def test_hasse_dot_and_json(self, capsys, tmp_path):
        target = tmp_path / "lattice.dot"
        code, out, _ = run(capsys, "hasse", "5", "--dot", str(target), "--json")
        assert code == 0
        assert out.startswith('{"n": 5')

    def test_balance_lists_moves(self, capsys):
        code, out, _ = run(capsys, "balance", "1,3,3,3,4,5,5")
        assert (code, out) == (0, "2 2,2,2,3,4,5,5\n6 1,3,3,4,4,4,4\n")

    def test_balance_at(self, capsys):
        code, out, _ = run(capsys, "balance", "1,2,3,4,4", "--at", "4")
        assert (code, out) == (0, "1,3,3,3,3\n")

    def test_balance_at_bad_index(self, capsys):
        code, _, err = run(capsys, "balance", "1,2,3,4,4", "--at", "2")
        assert code == 1
        assert "excess index" in err

    def test_balance_bottom_prints_nothing(self, capsys):
        code, out, _ = run(capsys, "balance", "2,2,3,3,3,3")
        assert (code, out) == (0, "")

    def test_tree_ascii(self, capsys):
        code, out, _ = run(capsys, "tree", "1,2,2")
        assert (code, out) == (0, "*\n+-- 0\n`-- *\n    +-- 10\n    `-- 11\n")

    def test_tree_dot_file(self, capsys, tmp_path):
        target = tmp_path / "tree.dot"
        code, _, _ = run(capsys, "tree", "1,2,2", "--dot", str(target))
        assert code == 0
        assert target.read_text() == tree_dot(tree_from_sequence(validate((1, 2, 2))))

    def test_code(self, capsys):
        code, out, _ = run(capsys, "code", "1,2,3,3")
        assert (code, out) == (0, "0\n10\n110\n111\n")

    def test_code_single_leaf(self, capsys):
        code, out, _ = run(capsys, "code", "0")
        assert (code, out) == (0, "\n")

    @pytest.mark.parametrize("method", ["covers", "balancing", "decomposition", "all"])
    def test_irreducibles_methods_agree(self, capsys, method):
        code, out, _ = run(capsys, "irreducibles", "7", "--method", method)
        assert code == 0
        assert out.splitlines() == [
            "1,2,3,4,5,6,6",
            "1,2,3,5,5,5,5",
            "1,2,4,4,4,5,5",
            "1,3,3,4,4,4,4",
            "2,2,2,3,4,5,5",
            "2,2,2,4,4,4,4",
            "2,2,3,3,3,4,4",
        ]

    def test_irreducibles_runs_only_the_requested_test(self, capsys, monkeypatch):
        expected = run(capsys, "irreducibles", "9", "--method", "decomposition")

        def refuse(el, universe):
            raise AssertionError("the covers test ran for --method decomposition")

        monkeypatch.setattr(imbalattice.irreducibility, "is_join_irreducible_by_covers", refuse)
        assert run(capsys, "irreducibles", "9", "--method", "decomposition") == expected
        assert expected[0] == 0


class TestVerifyCommand:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "5")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == len(CHECKS)
        assert all(line.startswith("pass ") for line in lines)

    def test_single_property(self, capsys):
        code, out, _ = run(capsys, "verify", "6", "--property", "closure-equals-order")
        assert (code, out) == (0, "pass closure-equals-order (n=6)\n")

    def test_help_lists_every_check(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--help"])
        assert info.value.code == 0
        text = capsys.readouterr().out
        option = "\n  --property NAME"
        text = text[text.index(option) + len(option):text.index("\n  --format")]
        expected = "run only the named checks (repeatable); one of: " + ", ".join(sorted(CHECKS))
        # The help formatter wraps lines, hyphenated names included.
        assert "".join(text.split()) == "".join(expected.split())

    def test_unknown_property_is_argparses_invalid_choice(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "3", "--property", "nope"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        # The same error from a parser given every name up front.
        reference = argparse.ArgumentParser(prog="imbalattice verify")
        reference.add_argument("--property", choices=sorted(CHECKS), metavar="NAME")
        with pytest.raises(SystemExit):
            reference.parse_args(["--property", "nope"])
        expected = capsys.readouterr().err.splitlines()[-1]
        assert err.splitlines()[-1] == expected
        assert all(repr(name) in expected for name in CHECKS)

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "4", "--property", "meet-last-law", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {
            "property": "meet-last-law", "n": 4, "status": "pass", "witness": None,
        }

    def test_a_wrong_meet_is_reported_with_its_witness(self, capsys, monkeypatch):
        monkeypatch.setattr(imbalattice.verify, "meet", lambda s, t: s)
        (report,) = run_checks(4, ["meet-oracle-agreement"])
        assert (report.status, report.witness) == ("fail", "meet(1,2,3,3, 2,2,2,2)")
        code, out, _ = run(capsys, "verify", "4", "--property", "meet-oracle-agreement")
        assert (code, out) == (1, "fail meet-oracle-agreement (n=4) -- meet(1,2,3,3, 2,2,2,2)\n")

    def test_a_wrong_count_is_reported_with_its_witness(self, capsys, monkeypatch):
        monkeypatch.setattr(
            imbalattice.verify, "count_universe", lambda n: count_universe(n) + (n == 6)
        )
        (report,) = run_checks(6, ["enumeration-oracle"])
        assert (report.status, report.witness) == ("fail", "n=6 count 6 but 5 elements")
        code, out, _ = run(capsys, "verify", "6", "--property", "enumeration-oracle")
        assert (code, out) == (1, "fail enumeration-oracle (n=6) -- n=6 count 6 but 5 elements\n")

    def test_an_error_inside_one_check_fails_only_that_check(self, capsys, monkeypatch):
        def no_unique_bound(s, t, universe):
            raise NotALattice(f"lower bounds of {s} and {t} have no unique maximum")

        monkeypatch.setattr(imbalattice.verify, "meet_bruteforce", no_unique_bound)
        code, out, _ = run(capsys, "verify", "4")
        lines = out.splitlines()
        assert code == 1
        assert len(lines) == len(CHECKS)
        assert (
            "fail lattice-bounds-unique (n=4) -- "
            "NotALattice: lower bounds of 0 and 0 have no unique maximum"
        ) in lines
        assert "pass meet-last-law (n=4)" in lines

    def test_a_meet_outside_the_universe_is_a_witness(self, monkeypatch):
        monkeypatch.setattr(imbalattice.verify, "meet", lambda s, t: validate((0,)))
        (report,) = run_checks(2, ["meet-semilattice-laws"])
        assert (report.status, report.witness) == (
            "fail", "ElementNotInUniverse: 0 is not a length-2 sequence",
        )

    def test_a_check_sees_each_size_in_order_until_its_first_witness(self, monkeypatch):
        seen = []

        def planted(universe):
            seen.append(universe.n)
            return "planted at n=3" if universe.n == 3 else None

        monkeypatch.setitem(CHECKS, "meet-last-law", planted)
        (report,) = run_checks(6, ["meet-last-law"])
        assert seen == [1, 2, 3]
        assert (report.n, report.status, report.witness) == (6, "fail", "planted at n=3")

    def test_size_beyond_the_ceiling_is_refused_before_any_check(self, capsys):
        code, out, err = run(capsys, "verify", "21")
        assert (code, out) == (1, "")
        assert err == "error: n=21 exceeds the enumeration ceiling 20\n"
        with pytest.raises(SystemExit) as info:
            main(["verify", "8", "--ceiling", "21"])
        assert info.value.code == 2


class TestExitCodes:
    def test_usage_error_is_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["compare", "1,2,x", "1,1"])
        assert info.value.code == 2

    def test_non_ascii_digit_is_the_modules_parse_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["compare", "²", "1"])
        assert info.value.code == 2
        assert "not a comma-separated integer list: '²'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, token",
        [
            (["enumerate", "４"], "４"),
            (["enumerate", "1_0", "--count"], "1_0"),
            (["enumerate", " 5", "--count"], " 5"),
            (["enumerate", "+5", "--count"], "+5"),
            (["balance", "1,2,3,4,4", "--at", "４"], "４"),
            (["enumerate", "5", "--ceiling", "４"], "４"),
        ],
    )
    def test_sizes_and_indices_use_the_component_syntax(self, capsys, argv, token):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"not an integer: {token!r}" in capsys.readouterr().err

    def test_missing_command_is_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_invalid_sequence_is_one(self, capsys):
        code, _, err = run(capsys, "compare", "1,2,2,3", "1,2,2,3")
        assert code == 1
        assert "9/8" in err

    def test_huge_depth_is_one_short_line(self, capsys):
        code, out, err = run(capsys, "compare", "1,100000", "1,1")
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and len(err) < 100
        assert err.startswith("error: ")

    def test_deep_tree_renders_without_recursion(self, tmp_path):
        # The caterpillar of 1000 leaves is 999 levels deep, past the
        # default recursion limit.
        caterpillar = format_sequence(top(1000))
        target = tmp_path / "tree.dot"
        env = dict(os.environ, PYTHONPATH=str(Path(imbalattice.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "imbalattice", "tree", caterpillar, "--dot", str(target)],
            capture_output=True, env=env, timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout.count(b"\n") == 1999
        assert target.read_text() == tree_dot(tree_from_sequence(top(1000)))

    def test_ceiling_violation_is_one(self, capsys):
        code, _, err = run(capsys, "enumerate", "40")
        assert code == 1
        assert "ceiling" in err

    def test_count_keeps_the_ceiling(self, capsys):
        code, out, err = run(capsys, "enumerate", "21", "--count")
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and "ceiling" in err

    def test_count_beyond_the_default_ceiling(self, capsys):
        code, out, _ = run(capsys, "enumerate", "300", "--count", "--ceiling", "300")
        assert (code, out) == (0, f"{count_universe(300, 300)}\n")

    @staticmethod
    def read_one_line_then_close(module):
        # enumerate 18 prints about 200 kB, more than a pipe buffers, so the
        # command is still writing when the reader goes away.
        env = dict(os.environ, PYTHONPATH=str(Path(imbalattice.__file__).parents[1]))
        with subprocess.Popen(
            [sys.executable, "-m", module, "enumerate", "18"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as child:
            assert child.stdout.readline() == b"1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,17\n"
            child.stdout.close()
            err = child.stderr.read()
            assert child.wait(timeout=60) == 1
        assert b"Traceback" not in err
        assert err == b""

    def test_closed_pipe_is_one_without_traceback(self):
        self.read_one_line_then_close("imbalattice")

    def test_closed_pipe_under_the_cli_module(self):
        self.read_one_line_then_close("imbalattice.cli")

    @staticmethod
    def fails_to_write(*argv, stdout=subprocess.DEVNULL):
        env = dict(os.environ, PYTHONPATH=str(Path(imbalattice.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "imbalattice", *argv],
            stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=60,
        )
        assert done.returncode == 1
        assert b"Traceback" not in done.stderr
        assert done.stderr.startswith(b"error: ") and done.stderr.count(b"\n") == 1

    def test_dot_into_a_directory_is_one_error_line(self, tmp_path):
        self.fails_to_write("tree", "1,1", "--dot", str(tmp_path))

    def test_dot_into_a_missing_directory_is_one_error_line(self, tmp_path):
        self.fails_to_write("hasse", "3", "--dot", str(tmp_path / "missing" / "x.dot"))

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stdout_is_one_error_line(self):
        with open("/dev/full", "wb") as full:
            self.fails_to_write("enumerate", "5", stdout=full)


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("enumerate", "8"),
            ("hasse", "7"),
            ("irreducibles", "7"),
            ("verify", "4"),
            ("tree", "1,2,3,4,4"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


    @pytest.mark.parametrize("command, expected", REFERENCE.items(), ids=list(REFERENCE))
    def test_matches_benchmark_reference(self, capsys, command, expected):
        code, out, _ = run(capsys, *command.split())
        assert (code, out) == (0, expected)


class TestCoverage:
    def test_every_operation_reachable_from_a_command(self, capsys, tmp_path):
        operations = {
            getattr(imbalattice, name).__code__: name
            for name in imbalattice.__all__
            if callable(getattr(imbalattice, name))
            and not inspect.isclass(getattr(imbalattice, name))
        }
        dot = str(tmp_path / "out.dot")
        command_lines = [
            ["enumerate", "5"],
            ["enumerate", "5", "--count"],
            ["compare", "2,2,2,3,3", "1,3,3,3,3"],
            ["meet", "2,2,2,3,4,5,5", "1,3,3,4,4,4,4"],
            ["join", "2,2,2,3,4,5,5", "1,3,3,4,4,4,4"],
            ["hasse", "5", "--dot", dot, "--json"],
            ["irreducibles", "7"],
            ["balance", "1,3,3,3,4,5,5"],
            ["tree", "1,2,3,3", "--dot", dot],
            ["code", "1,2,3,3"],
            ["verify", "5"],
        ]
        called = set()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in operations:
                called.add(operations[frame.f_code])

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            codes = [main(argv) for argv in command_lines]
        finally:
            sys.setprofile(previous)
        assert codes == [0] * len(command_lines)
        assert set(operations.values()) - called == set()


# Cheap command lines for the fuzz below: lengths up to 8 (plus the
# invalid 0 and -1), sequences valid or not, of equal or unequal length.
sizes = st.integers(-1, 8).map(str)
valid_text = st.integers(1, 8).flatmap(
    lambda n: st.sampled_from(enumerate_universe(n).elements).map(format_sequence)
)
any_text = st.one_of(
    valid_text,
    st.lists(st.integers(-1, 9), min_size=1, max_size=8).map(
        lambda depths: ",".join(map(str, depths))
    ),
    st.sampled_from(["", "x", "1,,1", "1.0,1", "-"]),
)
methods = st.sampled_from(["covers", "balancing", "decomposition", "all"])
enumerate_options = st.sampled_from([[], ["--count"], ["--format", "json"], ["--ceiling", "5"]])
argvs = st.one_of(
    st.tuples(st.sampled_from(["compare", "meet", "join"]), any_text, any_text).map(list),
    st.tuples(st.sampled_from(["balance", "tree", "code"]), any_text).map(list),
    st.tuples(any_text, sizes).map(lambda p: ["balance", p[0], "--at", p[1]]),
    st.tuples(sizes, enumerate_options).map(lambda p: ["enumerate", p[0], *p[1]]),
    sizes.map(lambda n: ["hasse", n]),
    st.tuples(sizes, methods).map(lambda p: ["irreducibles", p[0], "--method", p[1]]),
    st.integers(1, 3).map(lambda n: ["verify", str(n)]),
)


def run_quietly(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue()


@settings(max_examples=100, deadline=None)
@given(argvs)
def test_fuzzed_commands_exit_cleanly_and_repeat_exactly(argv):
    first = run_quietly(argv)
    assert first[0] in (0, 1, 2)
    assert run_quietly(argv) == first
