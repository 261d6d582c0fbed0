import json

import pytest

from fitchmap import cli
from fitchmap.cli import main
from fitchmap.generalized import RecognitionReport, T2Violation
from fitchmap.io import read_map, read_tree

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
