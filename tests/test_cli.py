import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import select
import subprocess
import sys
import time
from pathlib import Path

import pytest

import circulant.cli as cli
from circulant import analyzer, arith, oracle
from circulant.abelian import AbelianType
from circulant.analyzer import ConnectionSet
from circulant.cli import main
from circulant.digraph import tower_connection_set
from circulant.oracle import ValidationReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_worked_example_text(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "n=45;S=0,1,15,30")
        assert code == 0
        assert "minimal group: Z9xZ5" in out
        assert "realizable: [Z9xZ5]" in out
        assert "exact: True" in out

    def test_block_example_json(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "n=9;S=3,6", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["minimal_group"] == "Z3^2"
        assert payload["realizable"] == ["Z3^2", "Z9"]
        assert payload["per_prime"] == [{"p": 3, "a": 2, "valid_levels": [1], "layers": [1, 1]}]

    def test_json_round_trip_byte_identical(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "n=45;S=0,1,15,30", "--format", "json")
        assert code == 0
        line = out.strip()
        assert cli._json_dumps(json.loads(line)) == line

    def test_reduction_warning_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "n=9;S=10")
        assert code == 0
        assert "reduced mod 9" in err

    def test_parse_error_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "n=9;S=1,x")
        assert code == 1
        assert "bad element" in err

    def test_empty_literal_is_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "")
        assert code == 1
        assert "expected 'n=...; S=...'" in err

    def test_one_warning_per_element_reduced(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "n=9; S=10,10,-1")
        assert code == 0
        assert out.startswith("n = 9\nS = {1,8}\n")
        assert err == "warning: element 10 reduced mod 9\n" * 2 + "warning: element -1 reduced mod 9\n"

    def test_strip_loops(self, capsys):
        # the flag is gone: a loop at every vertex leaves Aut and every verdict unchanged
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "n=45;S=0,1,15,30", "--strip-loops", "--format", "json"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --strip-loops" in capsys.readouterr().err


class TestDecompose:
    def test_prime_filter(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "n=45;S=0,1,15,30", "--prime", "3")
        assert code == 0
        assert "p = 3^2" in out
        assert "5^1" not in out

    def test_bad_prime(self, capsys):
        code, _, err = run_cli(capsys, "decompose", "n=45;S=0,1,15,30", "--prime", "7")
        assert code == 1
        assert "does not divide" in err

    def test_prime_that_divides_but_is_not_prime(self, capsys):
        code, out, err = run_cli(capsys, "decompose", "n=8;S=1", "--prime", "4")
        assert code == 1
        assert out == ""
        assert "error: 4 is not a prime dividing 8" in err

    @pytest.mark.parametrize("prime,message", [
        (-2, "error: -2 is not a prime dividing 12\n"),
        (-5, "error: -5 does not divide 12\n"),
        (0, "error: 0 does not divide 12\n"),
    ])
    def test_negative_and_zero_primes(self, capsys, prime, message):
        # -2 divides 12 but is no prime; 0 divides nothing
        code, out, err = run_cli(capsys, "decompose", "n=12; S=1", "--prime", str(prime))
        assert (code, out, err) == (1, "", message)

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "n=8;S=4", "--format", "json")
        payload = json.loads(out)
        assert payload["per_prime"][0]["valid_levels"] == [1, 2]


class TestWitness:
    def test_edge_lists_per_prime(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "n=45;S=0,1,15,30")
        assert code == 0
        assert "# p=3" in out and "# p=5" in out
        assert "n=9" in out and "n=5" in out

    def test_dot_output(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "n=9;S=3,6", "--format", "dot")
        assert code == 0
        assert "digraph tower_p3" in out

    def test_decomposes_once(self, capsys, monkeypatch):
        calls = []
        real = analyzer.decompose

        def counted(s):
            calls.append(s)
            return real(s)

        monkeypatch.setattr(analyzer, "decompose", counted)
        monkeypatch.setattr(cli, "decompose", counted)
        code, out, _ = run_cli(capsys, "witness", "n=45;S=0,1,15,30")
        assert code == 0
        assert out.index("# p=3") < out.index("# p=5")
        assert len(calls) == 1


class TestGenerate:
    def test_tower_literal(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--p", "3", "--layers", "1,1")
        assert code == 0
        assert out.strip() == "n=9; S=1,3,4,7"

    def test_round_trip_through_analyze(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--p", "2", "--layers", "2,1")
        literal = out.strip()
        code, out, _ = run_cli(capsys, "analyze", literal, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert sorted(payload["per_prime"][0]["layers"]) == [1, 2]

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--p", "2", "--layers", "1,1", "--format", "json")
        payload = json.loads(out)
        assert payload["n"] == 4

    @pytest.mark.parametrize("p", ["1", "0", "-3", "4", "6"])
    def test_non_prime_p_exit_1(self, capsys, p):
        code, out, err = run_cli(capsys, "generate", "--p", p, "--layers", "1,1")
        assert code == 1
        assert out == ""
        assert f"p must be prime, got {p}" in err

    @pytest.mark.parametrize("layers,token", [("1,,2", "''"), ("1,x", "'x'")])
    def test_bad_layer_is_a_usage_error(self, capsys, layers, token):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--p", "2", "--layers", layers])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --layers: invalid layer exponent {token} in '{layers}'" in captured.err


class TestVerify:
    def test_exact_match_exit_0(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "n=9;S=3,6")
        assert code == 0
        assert "verdict=exact-match" in out

    def test_json_line(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "n=9;S=3,6", "--format", "json")
        line = out.strip()
        payload = json.loads(line)
        assert payload["verdict"] == "exact-match"
        assert cli._json_dumps(payload) == line

    # Aut(Cay(Z_12, {6})) = Z_2 wr S_6 has 46,080 elements, and 12 is no prime
    # power, so the oracle enumerates it and trips a cap of 100
    def test_capped_not_strict_exit_0(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "n=12;S=6", "--cap", "100")
        assert code == 0
        assert "oracle-capped" in out

    def test_capped_strict_exit_3(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "n=12;S=6", "--cap", "100", "--strict")
        assert code == 3

    # a cap below 1 is a usage error, not a report that names it
    @pytest.mark.parametrize("flag,value", [("--cap", "-1"), ("--vertex-cap", "-5"), ("--cap", "0")])
    def test_cap_below_one_is_a_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "n=16;S=8", flag, value, "--format", "json"])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: must be at least 1, got {value}" in captured.err

    def test_json_names_the_path_and_text_does_not(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "n=8;S=", "--format", "json")
        assert json.loads(out)["path"] == "symmetric"
        _, out, _ = run_cli(capsys, "verify", "n=8;S=")
        assert out == "n=8 S=[] predicted=[Z2^3, Z4xZ2, Z8] actual=[Z2^3, Z4xZ2, Z8] verdict=exact-match\n"

    def test_mismatch_exit_2(self, capsys, monkeypatch):
        fake = ValidationReport(4, (1,), ("Z4",), (), oracle.MISMATCH)
        monkeypatch.setattr(cli, "cross_validate", lambda *a, **k: fake)
        code, out, _ = run_cli(capsys, "verify", "n=4;S=1")
        assert code == 2
        assert "MISMATCH" in out

    def test_batch_corpus(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("# comment\n\nn=9; S=3,6\nn=4; S=1\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "verify", "--batch", str(corpus), "--format", "json")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert [entry["n"] for entry in lines] == [9, 4]

    def test_batch_corpus_with_byte_order_mark(self, capsys, tmp_path):
        # a UTF-8 byte order mark before line 1 is not part of the line
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("\ufeffn=9; S=3,6\nn=4; S=1\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", "--batch", str(corpus), "--format", "json")
        assert code == 0 and err == ""
        assert [json.loads(line)["n"] for line in out.strip().splitlines()] == [9, 4]

    def test_batch_line_that_is_not_utf8(self, capsys, tmp_path):
        # a byte that is not UTF-8 fails its own line; the lines around it are answered
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(b"n=9; S=3,6\n\xff\xfe bad\nn=4; S=1\n")
        code, out, err = run_cli(capsys, "verify", "--batch", str(corpus), "--format", "json")
        assert code == 1 and err.startswith(f"error: {corpus}:2: ") and err.count("\n") == 1
        assert [json.loads(line)["n"] for line in out.strip().splitlines()] == [9, 4]

    def test_generate_batch_verify_round_trip(self, capsys, tmp_path):
        lines = []
        for p, layers in (("2", "1,1"), ("2", "2,1"), ("3", "1,1")):
            code, out, _ = run_cli(capsys, "generate", "--p", p, "--layers", layers)
            assert code == 0
            lines.append(out.strip())
        corpus = tmp_path / "towers.txt"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "verify", "--batch", str(corpus), "--format", "json")
        assert code == 0
        for line in out.strip().splitlines():
            assert json.loads(line)["verdict"] == "exact-match"

    def test_batch_parse_error_names_line(self, capsys, tmp_path):
        # the malformed line gets its error, and the lines before and after
        # it are still answered, each in its turn
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("n=9; S=3,6\nn=9; S=oops\nn=12; S=13,1\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", "--batch", str(corpus))
        assert code == 1
        assert out == (
            "n=9 S=[3, 6] predicted=[Z3^2, Z9] actual=[Z3^2, Z9] verdict=exact-match\n"
            "n=12 S=[1] predicted=[Z4xZ3] actual=[Z4xZ3] verdict=exact-match\n"
        )
        assert err == (
            f"error: {corpus}:2: bad element 'oops' at index 0 in 'n=9; S=oops'\n"
            f"warning: {corpus}:3: element 13 reduced mod 12\n"
        )

    # with S empty every group of order 2^50 is realizable, past the group cap;
    # the lines after it are still answered
    @pytest.mark.parametrize("flags,exit_code", [((), 1), (("--strict",), 3)])
    def test_batch_capacity_error_names_line(self, capsys, tmp_path, flags, exit_code):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("n=8;S=1\nn=1125899906842624;S=\nn=9;S=1,2\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", "--batch", str(corpus), *flags)
        assert code == exit_code
        assert out == (
            "n=8 S=[1] predicted=[Z8] actual=[Z8] verdict=exact-match\n"
            "n=9 S=[1, 2] predicted=[Z9] actual=[Z9] verdict=exact-match\n"
        )
        assert err == f"capacity: {corpus}:2: up-set of Z2^50 would have 204226 groups (cap=100000)\n"

    # a malformed literal is never decomposed: the line gets its error, the
    # lines after it are still answered, and a strict cap keeps its exit 3
    @pytest.mark.parametrize("flags,capped,exit_code", [
        ((), False, 1), (("--strict",), False, 1), ((), True, 1), (("--strict",), True, 3),
    ])
    def test_batch_line_without_decomposition(self, capsys, tmp_path, flags, capped, exit_code):
        corpus = tmp_path / "corpus.txt"
        lines = ["n=4; S=1", "n=4; S=x", "n=5; S=1"] + ["n=1125899906842624;S="] * capped
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", "--batch", str(corpus), *flags)
        assert code == exit_code
        assert out == (
            "n=4 S=[1] predicted=[Z4] actual=[Z4] verdict=exact-match\n"
            "n=5 S=[1] predicted=[Z5] actual=[Z5] verdict=exact-match\n"
        )
        expected = f"error: {corpus}:2: bad element 'x' at index 0 in 'n=4; S=x'\n"
        if capped:
            expected += f"capacity: {corpus}:4: up-set of Z2^50 would have 204226 groups (cap=100000)\n"
        assert err == expected

    def test_batch_mismatch_outranks_a_line_without_decomposition(self, capsys, tmp_path, monkeypatch):
        real = cli.cross_validate
        fake = ValidationReport(4, (1,), ("Z4",), (), oracle.MISMATCH)
        monkeypatch.setattr(cli, "cross_validate", lambda s, **k: fake if s.n == 4 else real(s, **k))
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("n=4;S=x\nn=4;S=1\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", "--batch", str(corpus))
        assert code == 2
        assert "MISMATCH" in out
        assert err == f"error: {corpus}:1: bad element 'x' at index 0 in 'n=4;S=x'\n"

    def test_batch_mismatch_outranks_a_capacity_error(self, capsys, tmp_path, monkeypatch):
        real = cli.cross_validate
        fake = ValidationReport(4, (1,), ("Z4",), (), oracle.MISMATCH)
        monkeypatch.setattr(cli, "cross_validate", lambda s, **k: fake if s.n == 4 else real(s, **k))
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("n=1125899906842624;S=\nn=4;S=1\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", "--batch", str(corpus), "--strict")
        assert code == 2
        assert "MISMATCH" in out
        assert err.startswith(f"capacity: {corpus}:1: ")

    def test_batch_mismatch_outranks_a_strict_capped_line_and_an_error_line(self, capsys, tmp_path, monkeypatch):
        real = cli.cross_validate
        fake = ValidationReport(4, (1,), ("Z4",), (), oracle.MISMATCH)
        monkeypatch.setattr(cli, "cross_validate", lambda s, **k: fake if s.n == 4 else real(s, **k))
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("n=12;S=6\nn=4;S=1\nn=4;S=x\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", "--batch", str(corpus), "--cap", "100", "--strict")
        assert code == 2
        assert [line.rsplit("=", 1)[1] for line in out.splitlines()] == ["oracle-capped", "MISMATCH"]
        assert err == f"error: {corpus}:3: bad element 'x' at index 0 in 'n=4;S=x'\n"

    # a capped verdict raises the exit to 3 under --strict, whichever side of
    # an error line it falls on; without --strict only the error counts
    @pytest.mark.parametrize("lines", [("n=12;S=6", "n=4;S=x"), ("n=4;S=x", "n=12;S=6")])
    @pytest.mark.parametrize("flags,exit_code", [((), 1), (("--strict",), 3)])
    def test_batch_strict_capped_line_outranks_an_error_line(self, capsys, tmp_path, lines, flags, exit_code):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", "--batch", str(corpus), "--cap", "100", *flags)
        assert code == exit_code
        assert out.endswith("verdict=oracle-capped\n") and out.count("\n") == 1
        bad = lines.index("n=4;S=x") + 1
        assert err == f"error: {corpus}:{bad}: bad element 'x' at index 0 in 'n=4;S=x'\n"

    def test_batch_file_missing(self, capsys, tmp_path):
        missing = tmp_path / "missing.txt"
        code, out, err = run_cli(capsys, "verify", "--batch", str(missing))
        assert code == 1 and out == ""
        assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"

    def test_batch_read_error_keeps_the_lines_answered(self, capsys, monkeypatch):
        # line 1 is answered before line 2 is read, so its report stands when that read fails
        class FailsOnSecondRead(io.StringIO):
            def __next__(self):
                if self.tell():
                    raise OSError(5, "Input/output error")
                return super().__next__()

        monkeypatch.setattr(cli, "open", lambda *a, **k: FailsOnSecondRead("n=9;S=3,6\nn=4;S=1\n"), raising=False)
        code, out, err = run_cli(capsys, "verify", "--batch", "corpus.txt")
        assert code == 1
        assert out == "n=9 S=[3, 6] predicted=[Z3^2, Z9] actual=[Z3^2, Z9] verdict=exact-match\n"
        assert err == "error: [Errno 5] Input/output error\n"

    def test_batch_on_a_pipe_answers_each_line_as_it_arrives(self):
        # the first line's report is printed while stdin is still open
        with _verify_on_a_pipe() as child:
            child.stdin.write("n=9;S=3,6\n")
            child.stdin.flush()
            ready, _, _ = select.select([child.stdout], [], [], 10)
            assert ready, "no report before stdin was closed"
            assert json.loads(child.stdout.readline())["verdict"] == "exact-match"
            child.stdin.write("# c\nn=4;S=1\n")
            child.stdin.close()
            assert [json.loads(line)["n"] for line in child.stdout] == [4]
            assert child.wait(timeout=120) == 0

    def test_batch_on_a_closed_pipe_exits_without_a_traceback(self):
        with _verify_on_a_pipe() as child:
            child.stdout.close()
            child.stdin.write("n=9;S=3,6\nn=4;S=1\n")
            child.stdin.close()
            assert child.wait(timeout=120) == cli.EXIT_ERROR
            assert child.stderr.read() == ""  # main answers the closed stdout, not the batch's read error

    def test_needs_instance_or_batch(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == 1
        assert "exactly one" in err

    def test_literal_and_batch_are_refused_before_either_is_read(self, capsys, tmp_path):
        # _run_verify reads its literal, so a literal that also names a batch is not read
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("n=9;S=3,6\n")
        for literal in ("n=8;S=9", "n=8;S=x"):
            assert run_cli(capsys, "verify", literal, "--batch", str(corpus)) == (
                1, "", "error: verify needs exactly one of an instance literal or --batch\n")


class TestUnfactorable:
    """n with a cofactor past the trial-division bound fails loudly."""

    def test_analyze_literal(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "analyze", "n=1000000000000000000000007;S=1")
        assert time.perf_counter() - start < 10
        assert code == 1
        assert out == ""
        assert err == "capacity: cannot factor: a cofactor has no prime factor up to the bound (cap=10000000)\n"

    # every command that factorizes n, or p, under a lowered bound
    @pytest.mark.parametrize("argv", [
        ("verify", "n=10403;S=1"),
        ("decompose", "n=10403;S=1"),
        ("witness", "n=10403;S=1"),
        ("poset", "10403"),
        ("generate", "--p", "10403", "--layers", "1"),
    ], ids=lambda argv: argv[0])
    def test_every_command(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(arith, "TRIAL_DIVISION_BOUND", 100)  # 10403 = 101 * 103
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("capacity: cannot factor") and err.endswith("(cap=100)\n"), err


class TestPoset:
    def test_order_32_dot(self, capsys):
        # 7 groups; the realizability order is total on partitions of 5,
        # so the diagram is a 6-edge chain
        code, out, _ = run_cli(capsys, "poset", "32", "--format", "dot")
        assert code == 0
        assert out.count("label=") == 7
        assert out.count("->") == 6

    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "poset", "45")
        assert "2 abelian groups" in out
        assert "Z3^2xZ5 < Z9xZ5" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "poset", "32", "--format", "json")
        line = out.strip()
        assert cli._json_dumps(json.loads(line)) == line

    @pytest.mark.parametrize("fmt", ["text", "json", "dot"])
    def test_writes_each_group_once(self, capsys, monkeypatch, fmt):
        # 77 groups of order 2^12, each written once however many cover pairs name it
        written = []
        real = AbelianType.text

        def counted(group):
            written.append(group)
            return real(group)

        monkeypatch.setattr(AbelianType, "text", counted)
        code, _, _ = run_cli(capsys, "poset", str(2**12), "--format", fmt)
        assert code == 0
        assert len(written) == len(set(written)) == 77

    def test_closed_pipe_exits_without_a_traceback(self):
        # the reader takes one line of 5,604 groups and closes the pipe
        src = str(Path(__file__).resolve().parents[1] / "src")
        child = subprocess.Popen(
            [sys.executable, "-c", CLI_SCRIPT, "poset", "1073741824"],
            env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        assert child.stdout.readline() == "5604 abelian groups of order 1073741824:\n"
        child.stdout.close()
        stderr = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=120) == cli.EXIT_ERROR
        assert stderr == ""  # no traceback, and no error from the exit flush


REMOVED_FLAGS = [
    ("poset", "8", "--seed", "1"),
    ("poset", "8", "--cap", "5"),
    ("poset", "8", "--strict"),
    ("analyze", "n=8;S=1", "--cap", "5"),
    ("analyze", "n=8;S=1", "--vertex-cap", "5"),
    ("analyze", "n=8;S=1", "--strict"),
    ("analyze", "n=8;S=1", "--seed", "1"),
    ("analyze", "n=8;S=1", "--format", "dot"),
    ("decompose", "n=8;S=1", "--strict"),
    ("decompose", "n=8;S=1", "--format", "dot"),
    ("witness", "n=8;S=1", "--cap", "5"),
    ("witness", "n=8;S=1", "--format", "json"),
    ("generate", "--p", "2", "--layers", "1", "--strict"),
    ("generate", "--p", "2", "--layers", "1", "--strip-loops"),
    ("generate", "--p", "2", "--layers", "1", "--format", "dot"),
    ("verify", "n=8;S=1", "--seed", "1"),
    ("verify", "n=8;S=1", "--format", "dot"),
    ("analyze", "n=8;S=0,1", "--format", "json", "--strip-loops"),
    ("decompose", "n=8;S=0,1", "--format", "json", "--strip-loops", "--prime", "2"),
    ("witness", "n=8;S=0,1", "--format", "dot", "--strip-loops"),
    ("verify", "n=8;S=0,1", "--cap", "500", "--vertex-cap", "8", "--format", "json", "--strip-loops", "--strict"),
]

KEPT_FLAGS = [
    ("analyze", "n=8;S=0,1", "--format", "json"),
    ("decompose", "n=8;S=0,1", "--format", "json", "--prime", "2"),
    ("witness", "n=8;S=0,1", "--format", "dot"),
    ("generate", "--p", "2", "--layers", "1", "--format", "json"),
    ("verify", "n=8;S=0,1", "--cap", "500", "--vertex-cap", "8", "--format", "json", "--strict"),
    ("poset", "8", "--format", "dot"),
]

# removed flags are usage errors (argparse exits 1); kept flags still run
FLAG_TABLE = [(argv, 1) for argv in REMOVED_FLAGS] + [(argv, 0) for argv in KEPT_FLAGS]


class TestParser:
    def test_unknown_command_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv,expected", FLAG_TABLE, ids=[" ".join(argv) for argv, _ in FLAG_TABLE])
    def test_flag_table(self, capsys, argv, expected):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        assert code == expected
        assert bool(capsys.readouterr().out) is (expected == 0)

    def test_analyze_and_verify_share_prediction(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "n=8;S=4", "--format", "json")
        analyzed = json.loads(out)["realizable"]
        code, out, _ = run_cli(capsys, "verify", "n=8;S=4", "--format", "json")
        verified = json.loads(out)["predicted"]
        assert analyzed == verified

    # main builds its parser once per process; these calls reuse it

    def test_prime_filter_does_not_carry_over(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "n=45;S=0,1,15,30", "--prime", "3")
        assert code == 0
        assert "5^1" not in out
        code, out, _ = run_cli(capsys, "decompose", "n=45;S=0,1,15,30")
        assert code == 0
        assert "p = 3^2" in out
        assert "p = 5^1" in out

    def test_strict_does_not_carry_over(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "n=12;S=6", "--cap", "100", "--strict")
        assert code == 3
        code, out, _ = run_cli(capsys, "verify", "n=12;S=6", "--cap", "100")
        assert code == 0
        assert "oracle-capped" in out

    def test_valid_call_after_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "n=8;S=4", "--format", "dot"])
        assert exc.value.code == 1
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "analyze", "n=8;S=4", "--format", "json")
        assert code == 0
        assert json.loads(out)["n"] == 8

    def test_full_parser_only_for_what_it_reports(self, capsys, monkeypatch):
        # a scripted call is parsed by no parser once its shape has been used;
        # every other call is one parse by the full parser, and main runs no
        # subcommand parser's parse_known_args itself
        parser, _ = cli.build_parser()
        scripted_argvs = [("analyze", "n=8;S=4", "--format", "json"), ("witness", "n=8;S=4"), ("verify", "n=8;S=4")]
        for argv in scripted_argvs:
            run_cli(capsys, *argv)
        calls, inside, stray = [], [], []
        real = parser.parse_args

        def full(argv):
            calls.append(argv)
            inside.append(argv)
            try:
                return real(argv)
            finally:
                inside.pop()

        real_known = argparse.ArgumentParser.parse_known_args

        def known(self, args=None, namespace=None):
            if not inside:  # a parse that no full-parser parse made
                stray.append(self.prog)
            return real_known(self, args, namespace)

        monkeypatch.setattr(parser, "parse_args", full)
        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", known)
        for argv in scripted_argvs:
            run_cli(capsys, *argv)
        assert (calls, stray) == ([], [])
        others = [["decompose", "n=8;S=4", "--prime", "2"], ["analyze", "--format", "json", "n=8;S=4"], ["poset", "8"]]
        for argv in others:
            assert main(argv) == 0
        assert (calls, stray) == (others, [])
        for argv in (["analyze", "n=8;S=4", "--strip-loops"], ["frobnicate"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 1
        assert (calls, stray) == ([*others, ["analyze", "n=8;S=4", "--strip-loops"], ["frobnicate"]], [])
        assert capsys.readouterr().err.count("usage: circulant [-h]") == 2

    def test_reads_sys_argv_by_default(self, capsys, monkeypatch):
        # the console script calls main() with no arguments
        monkeypatch.setattr(sys, "argv", ["circulant", "analyze", "n=9;S=3,6", "--format", "json"])
        assert main() == 0
        assert json.loads(capsys.readouterr().out)["minimal_group"] == "Z3^2"

    def test_parser_is_built_once(self, capsys, monkeypatch):
        run_cli(capsys, "analyze", "n=8;S=4")
        built = []

        class Counted(cli._Parser):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "_Parser", Counted)
        run_cli(capsys, "analyze", "n=45;S=0,1,15,30")
        run_cli(capsys, "decompose", "n=8;S=4")
        run_cli(capsys, "verify", "n=8;S=4")
        assert built == []


# every call of the form COMMAND LITERAL [--format F], F one of the command's choices
SCRIPTED_SHAPES = [
    (name, flags)
    for name, choices in [("analyze", "text json"), ("decompose", "text json"), ("witness", "text dot"),
                          ("verify", "text json")]
    for flags in [(), *(("--format", choice) for choice in choices.split())]
]
SCRIPTED_LITERALS = ["", " ", "n=8;S=4", "n=8; S=0,1 ", "n=\u0668;S=1", "x", "=", "n=8;\tS=4", "n=8;S=4\n", "\t", "\n"]
# calls the scripted table leaves to argparse: a literal that starts with -, a
# flag spelled or placed otherwise, a refused format, another flag, a leftover
# argument, and a command without a literal
ARGPARSE_ROUTED = [
    ("analyze", "-"), ("analyze", "-1"), ("analyze", "--"), ("analyze", "-h"), ("verify", "-", "--format", "json"),
    ("analyze", "n=8;S=4", "--format=json"), ("analyze", "n=8;S=4", "--form", "json"),
    ("analyze", "--format", "json", "n=8;S=4"), ("analyze", "n=8;S=4", "--format", "dot"),
    ("decompose", "n=45;S=0,1,15,30", "--prime", "3"), ("analyze", "n=8;S=4", "--strip-loops"),
    ("analyze", "n=8;S=4", "--format", "json", "--strip-loops"), ("verify", "n=8;S=4", "--format"),
    ("poset", "8"),
]


def _recording(template, seen):
    """``template`` with a runner that keeps the namespace it is handed."""
    return argparse.Namespace(**{**vars(template), "run": lambda args: seen.append(args) or 0})


class TestScripted:
    """`main` answers COMMAND LITERAL [--format F] from argparse's own
    namespace for that shape, with the literal swapped in."""

    def test_table_holds_every_scripted_shape(self):
        _, scripted = cli.build_parser()
        assert sorted(scripted) == sorted((name, *flags) for name, flags in SCRIPTED_SHAPES)

    @pytest.mark.parametrize("name,flags", SCRIPTED_SHAPES, ids=[" ".join((n, *f)) for n, f in SCRIPTED_SHAPES])
    def test_namespace_is_argparses(self, monkeypatch, name, flags):
        parser, scripted = cli.build_parser()
        key, seen = (name, *flags), []
        template = scripted[key]()
        recording = _recording(template, seen)
        monkeypatch.setitem(scripted, key, lambda: recording)
        for literal in SCRIPTED_LITERALS:
            assert main([name, literal, *flags]) == 0
            (args,) = seen
            seen.clear()
            assert {**vars(args), "run": template.run} == vars(parser.parse_args([name, literal, *flags])), literal

    def test_each_call_gets_its_own_namespace(self, capsys, monkeypatch):
        _, scripted = cli.build_parser()
        before = {key: dict(vars(template())) for key, template in scripted.items()}
        key, seen = ("analyze", "--format", "json"), []
        recording = _recording(scripted[key](), seen)
        monkeypatch.setitem(scripted, key, lambda: recording)
        main(["analyze", "n=8;S=4", "--format", "json"])
        main(["analyze", "n=9;S=3,6", "--format", "json"])
        first, second = seen
        assert first is not second
        assert (first.instance, second.instance) == ("n=8;S=4", "n=9;S=3,6")  # each runner reads its literal
        monkeypatch.undo()
        for name, *flags in scripted:
            assert run_cli(capsys, name, "n=8;S=4", *flags)[0] == 0
        assert {key: vars(template()) for key, template in scripted.items()} == before

    def test_a_shape_is_parsed_on_its_first_use_only(self, capsys, monkeypatch):
        # a process that makes one scripted call runs one parse, as argparse alone would
        parses, real = [], argparse.ArgumentParser.parse_args
        monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                            lambda self, args=None, namespace=None: parses.append(self.prog) or real(self, args, namespace))
        built = cli.build_parser.__wrapped__()  # its templates bind the counted parse_args
        monkeypatch.setattr(cli, "build_parser", lambda: built)
        run_cli(capsys, "analyze", "n=8;S=4", "--format", "json")
        assert parses == ["circulant"]
        run_cli(capsys, "analyze", "n=9;S=3,6", "--format", "json")
        run_cli(capsys, "analyze", "n=9;S=3,6")
        run_cli(capsys, "analyze", "n=8;S=4")
        assert parses == ["circulant"] * 2

    def test_scripted_calls_run_no_parser(self, capsys, monkeypatch):
        argvs = [("analyze", "n=45;S=0,1,15,30", "--format", "json"), ("decompose", "n=45;S=0,1,15,30"),
                 ("witness", "n=9;S=3,6", "--format", "dot"), ("verify", "n=9;S=3,6", "--format", "text")]
        expected = [run_cli(capsys, *argv) for argv in argvs]  # also parses each shape's template

        def refuse(*args, **kwargs):
            raise AssertionError("argparse parsed a scripted call")

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
        assert [run_cli(capsys, *argv) for argv in argvs] == expected

    @pytest.mark.parametrize("argv", ARGPARSE_ROUTED, ids=" ".join)
    def test_argparse_answers_the_rest(self, capsys, monkeypatch, argv):
        # each call answers as it does with no scripted table at all
        def outcome():
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            return (code, *capsys.readouterr())

        routed = outcome()
        parser, _ = cli.build_parser()
        monkeypatch.setattr(cli, "build_parser", lambda: (parser, {}))
        assert routed == outcome()


def _cap_address_space(megabytes):
    limit = megabytes * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


CLI_SCRIPT = "import sys; from circulant.cli import main; sys.exit(main(sys.argv[1:]))"


def run_capped(*argv, megabytes=300, script=CLI_SCRIPT):
    """The CLI, or another script, in a child process whose address space is
    capped, at 300 MB unless ``megabytes`` says otherwise."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env, capture_output=True, text=True, preexec_fn=lambda: _cap_address_space(megabytes), timeout=120,
    )


@contextlib.contextmanager
def _verify_on_a_pipe():
    """`verify --batch /dev/stdin --format json` in a child, unbuffered, with
    its three streams on pipes; killed if the test leaves it running."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    with subprocess.Popen(
        [sys.executable, "-c", CLI_SCRIPT, "verify", "--batch", "/dev/stdin", "--format", "json"],
        env=dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED="1"),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as child:
        try:
            yield child
        finally:
            child.kill()


class TestMemoryBound:
    """Inputs far past the oracle's reach run in memory that does not grow with
    n, or fail loudly before they could exhaust it."""

    def test_witness_past_the_arc_cap(self):
        # one layer of 24: the tower is the directed 2^24-cycle
        result = run_capped("witness", "n=16777216;S=1")
        assert result.returncode == 1
        assert result.stderr.startswith("capacity: tower digraph would have 16777216 arcs"), result.stderr
        assert result.stdout == ""

    def test_witness_streams(self):
        # the n = 2048 tower, 897,024 arcs, just under the arc cap: printed arc
        # by arc it fits in 100 MB, where holding every arc peaked near 180 MB
        literal = ConnectionSet(*tower_connection_set(2, (3, 1, 2, 1, 2, 1, 1))).text()
        result = run_capped("witness", literal, megabytes=100)
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert lines[:2] == ["# p=2", "n=2048"]
        assert len(lines) == 2 + 897024

    def test_verify_caps_vertices_before_building(self):
        # a 2^24-vertex matrix would exhaust the address space; the cap trips first
        result = run_capped("verify", "n=16777216;S=1", "--format", "json")
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        assert payload["verdict"] == "oracle-capped"
        assert payload["capped_by"] == {"cap": "vertex_cap", "value": 64}
        assert payload["aut_order"] is None and payload["path"] is None
        start = time.perf_counter()
        report = oracle.cross_validate(ConnectionSet.of(16777216, [1]))
        assert time.perf_counter() - start < 0.1
        assert report.capped_by == payload["capped_by"]

    def test_verify_batch_reads_a_line_at_a_time(self, tmp_path):
        # two instances around 10^6 comment lines (14 MB): answered a line at a
        # time in 100 MB, where holding every line died with MemoryError
        corpus = tmp_path / "corpus.txt"
        with corpus.open("w", encoding="utf-8") as handle:
            handle.write("n=9;S=3,6\n")
            handle.writelines(f"# line {i}\n" for i in range(10**6))
            handle.write("n=4;S=1\n")
        result = run_capped("verify", "--batch", str(corpus), "--format", "json", megabytes=100)
        assert result.returncode == 0, result.stderr
        assert [json.loads(line)["n"] for line in result.stdout.splitlines()] == [9, 4]

    def test_cayley_digraph_past_the_vertex_cap(self):
        # the 400,000-vertex circulant is held as its adjacency row, and the
        # vertex cap refuses it before any other row is built
        script = (
            "from circulant.analyzer import ConnectionSet\n"
            "from circulant.errors import CapacityError\n"
            "from circulant.permgroup import automorphism_group\n"
            "digraph = ConnectionSet.of(400000, range(1, 11)).digraph()\n"
            "try:\n"
            "    automorphism_group(digraph)\n"
            "except CapacityError as exc:\n"
            "    print(exc.cap)\n"
        )
        result = run_capped(megabytes=100, script=script)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "64\n"

    def test_analyze_at_two_to_the_forty(self):
        result = run_capped("analyze", f"n={2**40};S=1,3,5,7", "--format", "json")
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["minimal_group"] == f"Z{2**40}"

    def test_analyze_elementary_abelian_at_two_to_the_forty(self):
        members = ",".join(str(k * 2**38) for k in range(4))
        result = run_capped("analyze", f"n={2**40};S={members}", "--format", "json")
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["minimal_group"] == "Z2^40"

    def test_generate_past_the_element_cap(self):
        # 21 layers of 1 give |S| = 1,398,101; 20 layers (699,050) still print
        result = run_capped("generate", "--p", "2", "--layers", ",".join(["1"] * 21))
        assert result.returncode == 1
        assert result.stderr.startswith("capacity: tower connection set would have 1398101 elements"), result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "argv,count",
        [
            (("verify", "n=1208925819614629174706176;S="), 15796476),  # 2^80
            (("poset", "1208925819614629174706176"), 15796476),
            (("analyze", "n=13367494538843734067838845976576;S="), 1394126244),  # 2^40 * 3^40
            (("analyze", "n=1152921504606846976;S="), 966467),  # 2^60
            # p(45) = 89,134 is within the cap, p(46) is not
            (("analyze", "n=70368744177664;S="), 105558),  # 2^46
            # p(20) = 627 and p(16) = 231 are each within the cap, their product is not
            (("analyze", "n=45137758519296;S="), 144837),  # 2^20 * 3^16
        ],
        ids=["verify-2^80", "poset-2^80", "analyze-2^40*3^40", "analyze-2^60", "analyze-2^46", "analyze-2^20*3^16"],
    )
    def test_group_lists_past_the_cap(self, argv, count):
        # with S empty every level is valid, so the up-set is every group of order n
        result = run_capped(*argv)
        assert result.returncode == 1
        assert result.stderr.startswith("capacity: "), result.stderr
        assert f"would have {count} groups" in result.stderr
        assert result.stdout == ""

    def test_partition_count_in_linear_memory(self):
        # p(2000) exactly, from the pentagonal recurrence: the (a+1)^2 table
        # of the dominance walk peaked near 140 MB here
        result = run_capped("analyze", f"n={2**2000};S=", megabytes=100)
        assert result.returncode == 1
        assert result.stderr == (
            "capacity: up-set of Z2^2000 would have 4720819175619413888601432406799959512200344166 groups (cap=100000)\n"
        )
        assert result.stdout == ""

    def test_near_flat_up_set_count_in_linear_memory(self):
        # Z4xZ2^1998: the dominance walk passes the cap while it reads only
        # p(r); building the (a+1)^2 table first ran out of 100 MB here
        result = run_capped("analyze", f"n={2**2000};S={2**1999},{2**1999 + 2**1998}", megabytes=100)
        assert result.returncode == 1
        assert result.stderr == (
            "capacity: up-set of Z4xZ2^1998 would have more than 100000 groups (cap=100000)\n"
        )
        assert result.stdout == ""

    def test_poset_pairs_the_enumerated_groups(self):
        # 44,583 groups of order 2^41 and 156,095 cover pairs: a group built
        # for every pair ran out of 110 MB here; pairing the enumerated
        # groups fits in 100 MB
        result = run_capped("poset", str(2**41), megabytes=100)
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert lines[0] == "44583 abelian groups of order 2199023255552:"
        assert lines[44584] == "156095 cover pairs:"
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
            "0c85f3c17cf7c9d85bd4f7b0816a2de2f983d5747386882bfe4410563b3a47fd"
        )

    def test_poset_json_writes_each_group_once(self):
        # the same 44,583 groups and 156,095 cover pairs in json: a text for
        # each group in each pair ran out of 110 MB here (it fits in 120 MB,
        # with this output)
        result = run_capped("poset", str(2**41), "--format", "json", megabytes=100)
        assert result.returncode == 0, result.stderr
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
            "5a2b2837e2c4c7c53d645bcb6e7f3975538e86f5419b456ce4efcfcccfaa7424"
        )

    def test_poset_dot_streams(self):
        # 89,134 groups of order 2^45 and their cover pairs, 418,569 dot
        # lines: written line by line they fit in 100 MB; holding every line
        # and cover pair ran out of 120 MB here (142 MB peak RSS uncapped)
        result = run_capped("poset", str(2**45), "--format", "dot", megabytes=100)
        assert result.returncode == 0, result.stderr
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
            "e90aade52ff65e84673f489475f8f62f89c3f8b057034c9cea0f89907d078f94"
        )

    def test_analyze_cyclic_past_the_partition_count(self):
        # p(61) groups of order 2^61, but the up-set of the cyclic group is itself
        result = run_capped("analyze", "n=2305843009213693952;S=1", "--format", "json")
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["realizable"] == [f"Z{2**61}"]

    def test_generate_thirty_layers(self):
        result = run_capped("generate", "--p", "2", "--layers", "30")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "n=1073741824; S=1"
