import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from fitchmap import cli
from fitchmap.cli import main
from fitchmap.evaluate import evaluate
from fitchmap.generalized import RecognitionReport, T2Violation
from fitchmap.io import read_map, read_tree, write_map, write_tree
from fitchmap.oracle import random_tree_like_instance
from test_io import MUTATIONS, one_char_text

T1_VIOLATING = "#fitchmap v1\na\tb\tc\n.\t-\t1\n-\t.\t2\n-\t-\t.\n"
CONFLICTING_TREE = "((a:-,b:1):2,c:-);\n"
EXAMPLE_TREE = "((a:-,b:2):2,c:-);\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRecognize:
    def test_round_trip_composition(self, tmp_path, capsys):
        prefix = tmp_path / "inst"
        code, _, _ = run(
            capsys, "--quiet", "gen-random", "--seed", "7", "--leaves", "8",
            "--symbols", "2", "-o-prefix", str(prefix),
        )
        assert code == 0
        out_tree = tmp_path / "out.lnw"
        code, _, _ = run(
            capsys, "recognize", str(prefix) + ".fm", "-o", str(out_tree)
        )
        assert code == 0
        code, _, _ = run(
            capsys, "--quiet", "check", str(out_tree), str(prefix) + ".fm"
        )
        assert code == 0

    def test_not_tree_like_exit_and_reason(self, tmp_path, capsys):
        path = tmp_path / "bad.fm"
        path.write_text(T1_VIOLATING)
        code, out, err = run(capsys, "recognize", str(path))
        assert code == 1
        assert "not tree-like" in err and "c" in err
        assert out == ""

    def test_json_report_fields(self, tmp_path, capsys):
        path = tmp_path / "bad.fm"
        path.write_text(T1_VIOLATING)
        code, out, err = run(capsys, "recognize", str(path), "--report", "json")
        assert code == 1
        rep = json.loads(out)
        assert rep == {
            "v": 1,
            "verdict": "not-tree-like",
            "reason": "T1",
            "witness": {"leaf": "c", "symbols": ["1", "2"]},
        }

    @pytest.mark.parametrize(
        "text, message, reason, witness",
        [
            (
                "#fitchmap v1\na\tb\tc\n.\t-\t-\n1\t.\t-\n-\t-\t.\n",
                "arc ('c', 'a') into the '1'-class carries '-' instead of '1'",
                "T3",
                {"x": "a", "y": "c", "expected": "1", "found": "-"},
            ),
            (
                "#fitchmap v1\na\tb\tc\n.\t1\t2\n3\t.\t4\n5\t-\t.\n",
                "5 symbols cannot fit on a tree with 4 edges at most",
                "alphabet-too-large",
                {"symbols": 5, "limit": 4},
            ),
            (
                "#fitchmap v1\na\tb\tc\n.\t1\t2\n3\t.\t4\n5\t6\t.\n",
                "6 symbols cannot fit on a tree with 4 edges at most",
                "alphabet-too-large",
                {"symbols": 6, "limit": 4},
            ),
        ],
    )
    def test_verdict_text_and_json_witness(self, tmp_path, capsys, text, message, reason, witness):
        path = tmp_path / "bad.fm"
        path.write_text(text)
        code, out, err = run(capsys, "recognize", str(path))
        assert (code, out, err) == (1, "", f"not tree-like: {message}\n")
        code, out, err = run(capsys, "recognize", str(path), "--report", "json")
        assert (code, err) == (1, "")
        assert json.loads(out) == {
            "v": 1, "verdict": "not-tree-like", "reason": reason, "witness": witness,
        }

    def test_json_report_on_success(self, tmp_path, capsys):
        path = tmp_path / "ok.fm"
        tree = tmp_path / "ok.lnw"
        tree.write_text(EXAMPLE_TREE)
        code, _, _ = run(capsys, "evaluate", str(tree), "-o", str(path))
        assert code == 0
        code, out, _ = run(capsys, "recognize", str(path), "--report", "json")
        assert code == 0
        assert json.loads(out)["verdict"] == "tree-like"

    def test_tree_to_stdout(self, tmp_path, capsys):
        path = tmp_path / "ok.fm"
        tree = tmp_path / "ok.lnw"
        tree.write_text(EXAMPLE_TREE)
        run(capsys, "evaluate", str(tree), "-o", str(path))
        code, out, _ = run(capsys, "recognize", str(path))
        assert code == 0
        assert out == EXAMPLE_TREE

    def test_input_error_exit_two(self, tmp_path, capsys):
        path = tmp_path / "broken.fm"
        path.write_text("#fitchmap v1\na\tb\n.\t-\n")
        code, _, err = run(capsys, "recognize", str(path))
        assert code == 2
        assert "error:" in err

    def test_missing_file_exit_two(self, capsys):
        code, _, err = run(capsys, "recognize", "/nonexistent/x.fm")
        assert code == 2

    def test_non_utf8_input_exit_two(self, tmp_path, capsys):
        fm = tmp_path / "latin1.fm"
        fm.write_bytes(b"#fitchmap v1\na\tb\n.\t\xff\n-\t.\n")
        lnw = tmp_path / "latin1.lnw"
        lnw.write_bytes(b"(a:-,b:\xff);\n")
        for argv in (("recognize", str(fm)), ("evaluate", str(lnw))):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert err.startswith("error:") and "utf-8" in err
            assert out == ""


def map_file_corpus():
    """(name, bytes) of .fm files for the file path: the mutations of the
    byte-path tests at n=300, more than one block, and the inputs that
    text mode reads differently from the bytes or that are not UTF-8."""
    rng = random.Random(300)
    cases = [
        (f"mutation-{m}", one_char_text(rng, 300, 9, 250, 299, m).encode())
        for m in MUTATIONS
    ]
    text = one_char_text(rng, 300, 9, 0, 1, None)
    tree_like = write_map(random_tree_like_instance(5, 300, 8)[1])
    head, names, body = text.split("\n", 2)
    wide = write_map(evaluate(read_tree("((a:-,b:x1):-,(c:-,d:y2):-);\n")))
    return cases + [
        ("tree-like", tree_like.encode()),
        ("tree-like-crlf", tree_like.replace("\n", "\r\n").encode()),
        ("crlf", text.replace("\n", "\r\n").encode()),
        ("cr-only", text.replace("\n", "\r").encode()),
        ("bom", b"\xef\xbb\xbf" + text.encode()),
        ("non-utf8-header", b"#fitchmap v1\xff\n" + f"{names}\n{body}".encode()),
        ("non-utf8-names", f"{head}\n".encode() + b"\xff" + f"{names}\n{body}".encode()),
        ("non-utf8-body", text[:-4].encode() + b"\xff\t.\n"),
        ("wide-token", wide.encode()),
        ("missing-body", f"{head}\n{names}\n".encode()),
        ("truncated-last-row", text[:-5].encode() + b"\n"),
        ("bytes-after-last-row", text.encode() + b"-"),
        ("row-after-last-row", (text + text.rsplit("\n", 2)[1] + "\n").encode()),
        ("empty", b""),
    ]


class TestMapFilePath:
    """A .fm file path streams through io's byte path and, when that
    declines, is read again as text: exit code, stdout and stderr are those
    of read_map on the whole text, which alone raises the errors."""

    @pytest.mark.parametrize("data", [pytest.param(data, id=name) for name, data in map_file_corpus()])
    def test_file_path_matches_text_read(self, tmp_path, capsys, monkeypatch, data):
        path = tmp_path / "m.fm"
        path.write_bytes(data)
        got = run(capsys, "recognize", str(path), "--report", "json")
        with monkeypatch.context() as m:
            m.setattr(cli, "_read_map", lambda p: read_map(cli._read_text(p)))
            assert got == run(capsys, "recognize", str(path), "--report", "json")

    @pytest.mark.parametrize("symbols, rereads", [(("1", "2"), 0), (("x1", "y2"), 1)])
    def test_text_is_read_only_when_the_byte_path_declines(
        self, tmp_path, capsys, monkeypatch, symbols, rereads,
    ):
        tree = read_tree("((a:-,b:{0}):-,(c:-,d:{1}):-);\n".format(*symbols))
        fm, lnw = tmp_path / "m.fm", tmp_path / "t.lnw"
        fm.write_text(write_map(evaluate(tree)))
        lnw.write_text(write_tree(tree))
        read_text, reads = cli._read_text, []

        def counted_read_text(path):
            reads.append(path)
            return read_text(path)

        monkeypatch.setattr(cli, "_read_text", counted_read_text)
        for argv in (["recognize", str(fm)], ["check", str(lnw), str(fm)], ["triples", str(fm)]):
            reads.clear()
            assert run(capsys, *argv)[0] == 0
            assert reads.count(str(fm)) == rereads


class TestEvaluateCheck:
    def test_label_conflict_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.lnw"
        path.write_text(CONFLICTING_TREE)
        code, _, err = run(capsys, "evaluate", str(path))
        assert code == 1
        assert "label conflict" in err

    def test_evaluate_to_stdout(self, tmp_path, capsys):
        path = tmp_path / "t.lnw"
        path.write_text(EXAMPLE_TREE)
        code, out, _ = run(capsys, "evaluate", str(path))
        assert code == 0
        assert out.startswith("#fitchmap v1\n")
        read_map(out)

    def test_evaluate_to_text_only_stdout(self, tmp_path):
        """A stdout without a byte buffer, such as io.StringIO, gets the text."""
        path = tmp_path / "t.lnw"
        path.write_text(EXAMPLE_TREE)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["evaluate", str(path)]) == 0
        assert out.getvalue() == write_map(evaluate(read_tree(EXAMPLE_TREE)))

    def test_check_failure_exit_one(self, tmp_path, capsys):
        tree = tmp_path / "t.lnw"
        tree.write_text(EXAMPLE_TREE)
        fm = tmp_path / "m.fm"
        run(capsys, "evaluate", str(tree), "-o", str(fm))
        other = tmp_path / "star.lnw"
        other.write_text("(a:-,b:-,c:-);\n")
        code, _, _ = run(capsys, "check", str(other), str(fm))
        assert code == 1


class TestTriplesAndAho:
    def test_triples_format_sorted(self, tmp_path, capsys):
        tree = tmp_path / "t.lnw"
        tree.write_text("((a:-,b:2):2,(c:-,d:1):1);\n")
        fm = tmp_path / "m.fm"
        run(capsys, "evaluate", str(tree), "-o", str(fm))
        code, out, _ = run(capsys, "triples", str(fm))
        assert code == 0
        lines = out.splitlines()
        assert lines == sorted(lines)
        assert all(" | " in ln and len(ln.split()) == 4 for ln in lines)

    def test_aho_builds_displaying_tree(self, tmp_path, capsys):
        tf = tmp_path / "r.txt"
        tf.write_text("a b | c\n")
        code, out, _ = run(capsys, "aho", str(tf), "--leaves", "a,b,c")
        assert code == 0
        tree = read_tree(out)
        assert tree.same_topology(read_tree("((a:-,b:-):-,c:-);\n"))

    def test_aho_inconsistent_exit_one(self, tmp_path, capsys):
        tf = tmp_path / "r.txt"
        tf.write_text("a b | c\nb c | a\n")
        code, _, err = run(capsys, "aho", str(tf), "--leaves", "a,b,c")
        assert code == 1
        assert "inconsistent" in err

    @pytest.mark.parametrize("text, line", [("a b c\n", 1), ("a b | c\n\na | b\n", 3)])
    def test_aho_parse_error_exit_two(self, tmp_path, capsys, text, line):
        tf = tmp_path / "r.txt"
        tf.write_text(text)
        code, out, err = run(capsys, "aho", str(tf), "--leaves", "a,b,c")
        assert (code, out) == (2, "")
        assert err == f"error: line {line}, column 1: expected 'a b | c'\n"


class TestGenRandomAndOracle:
    def test_gen_random_deterministic(self, tmp_path, capsys):
        p1 = tmp_path / "one"
        p2 = tmp_path / "two"
        for p in (p1, p2):
            code, _, _ = run(
                capsys, "--quiet", "gen-random", "--seed", "5", "--leaves", "12",
                "--symbols", "3", "-o-prefix", str(p),
            )
            assert code == 0
        assert (p1.with_suffix(".lnw")).read_bytes() == (p2.with_suffix(".lnw")).read_bytes()
        assert (p1.with_suffix(".fm")).read_bytes() == (p2.with_suffix(".fm")).read_bytes()

    def test_oracle_verify_exhaustive_three_leaves(self, capsys):
        code, out, _ = run(
            capsys, "oracle-verify", "--leaves", "3", "--symbols", "1", "--exhaustive"
        )
        assert code == 0
        assert "agreements" in out

    def test_oracle_verify_samples(self, capsys):
        code, out, _ = run(
            capsys, "oracle-verify", "--leaves", "4", "--symbols", "2",
            "--samples", "20", "--seed", "3",
        )
        assert code == 0

    def test_bench_output_format(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--leaves", "16", "--symbols", "2",
            "--seed", "1", "--repeat", "3",
        )
        assert code == 0
        n, seconds = out.strip().split("\t")
        assert n == "16"
        float(seconds)

    @pytest.mark.parametrize(
        "argv",
        [
            ("bench", "--leaves", "16", "--symbols", "2", "--repeat", "0"),
            ("bench", "--leaves", "16", "--symbols", "2", "--repeat", "-2"),
            ("oracle-verify", "--leaves", "4", "--symbols", "2", "--samples", "0"),
            ("oracle-verify", "--leaves", "4", "--symbols", "2", "--samples", "-1"),
        ],
    )
    def test_count_below_one_exits_two(self, capsys, argv):
        # no statistics over zero runs, and no success after checking nothing
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"error: argument {argv[-2]}: must be at least 1, got {argv[-1]}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen-random", "--seed", "1", "--leaves", "8", "--symbols", "-1"),
            ("bench", "--leaves", "16", "--repeat", "3", "--symbols", "-1"),
            ("oracle-verify", "--leaves", "4", "--samples", "3", "--symbols", "-1"),
            ("oracle-verify", "--leaves", "2", "--exhaustive", "--symbols", "-1"),
        ],
    )
    def test_negative_symbols_exits_two(self, capsys, argv):
        # an empty alphabet is allowed; a negative size is a usage error,
        # not a traceback or a run over no symbols at all
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "error: argument --symbols: must be at least 0, got -1" in err

    def test_bench_wrong_verdict_exits_one(self, capsys, monkeypatch):
        # an explicit check, not an assert, so python -O keeps it
        wrong = RecognitionReport(None, T2Violation(symbol="1", triad=("a", "b", "c")))
        monkeypatch.setattr(cli, "recognize", lambda fmap: wrong)
        code, out, err = run(
            capsys, "bench", "--leaves", "16", "--symbols", "2",
            "--seed", "1", "--repeat", "3",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: tree-like instance (seed 1) reported not tree-like")


class TestGlobalFlags:
    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert "fitchmap" in out

    def test_bad_flags_exit_two(self, capsys):
        assert run(capsys, "recognize")[0] == 2
        assert run(capsys, "no-such-command")[0] == 2


class TestModuleEntry:
    def test_python_dash_m_runs_each_command(self, tmp_path, capsys):
        """`python -m fitchmap` and `python -m fitchmap.cli` run the command
        line in a fresh interpreter, with the bytes and exit codes of main()."""
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))

        def module(*argv):
            done = subprocess.run([sys.executable, "-m", *argv], cwd=tmp_path, env=env,
                                  capture_output=True, timeout=120)
            return done.returncode, done.stdout

        assert module("fitchmap", "--quiet", "gen-random", "--seed", "5", "--leaves", "9",
                      "--symbols", "3", "--o-prefix", "inst") == (0, b"")
        assert run(capsys, "--quiet", "gen-random", "--seed", "5", "--leaves", "9",
                   "--symbols", "3", "--o-prefix", str(tmp_path / "ref"))[0] == 0
        for ext in ("fm", "lnw"):
            assert (tmp_path / f"inst.{ext}").read_bytes() == (tmp_path / f"ref.{ext}").read_bytes()
        code, tree = module("fitchmap", "recognize", "inst.fm")
        assert code == 0
        assert tree.decode() == run(capsys, "recognize", str(tmp_path / "inst.fm"))[1]
        assert module("fitchmap.cli", "recognize", "inst.fm", "-o", "out.lnw") == (0, b"")
        assert (tmp_path / "out.lnw").read_bytes() == tree
        assert module("fitchmap", "evaluate", "out.lnw") == (0, (tmp_path / "inst.fm").read_bytes())
        assert module("fitchmap", "recognize", "no-such.fm")[0] == 2
