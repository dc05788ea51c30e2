import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_instance, short_edge_instance


def cli_env(**overrides):
    """The caller's environment without LEXGRAPH_SEED, plus ``overrides``.

    Keeps PYTHONPATH (so the child can import lexgraph) while a seed exported
    in the calling shell cannot leak into tests that omit ``--seed``.
    """
    env = {k: v for k, v in os.environ.items() if k != "LEXGRAPH_SEED"}
    env.update(overrides)
    return env


def run_cli(*args, cwd=None, env=None):
    return subprocess.run(
        [sys.executable, "-m", "lexgraph.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=cli_env(**(env or {})),
    )


@pytest.fixture
def path_fixture(tmp_path):
    edges = tmp_path / "g.edges.tsv"
    edges.write_text("#undirected\na\tb\t1\nb\tc\t1\n")
    labels = tmp_path / "g.labels.tsv"
    labels.write_text("a\t0\nc\t1\n")
    return edges, labels


@pytest.fixture
def random_fixture(tmp_path):
    rng = np.random.default_rng(5)
    n = 14
    lines = ["#undirected"]
    for i in range(1, n):
        j = int(rng.integers(i))
        lines.append(f"v{i}\tv{j}\t{rng.uniform(0.3, 2.0):.6f}")
    for _ in range(12):
        u, v = rng.integers(n), rng.integers(n)
        if u != v:
            lines.append(f"v{u}\tv{v}\t{rng.uniform(0.3, 2.0):.6f}")
    edges = tmp_path / "r.edges.tsv"
    edges.write_text("\n".join(lines) + "\n")
    labels = tmp_path / "r.labels.tsv"
    labels.write_text("v0\t0.1\nv3\t0.9\nv7\t0.4\n")
    return edges, labels


def read_tsv(path):
    out = {}
    for line in Path(path).read_text().splitlines():
        k, v = line.split("\t")
        out[k] = float(v)
    return out


class TestSolveCommands:
    def test_lexmin_path_fixture(self, path_fixture, tmp_path):
        edges, labels = path_fixture
        out = tmp_path / "out.tsv"
        res = run_cli("lexmin", str(edges), str(labels), "--seed", "1", "--out", str(out))
        assert res.returncode == 0, res.stderr
        vals = read_tsv(out)
        assert vals == {"a": 0.0, "b": 0.5, "c": 1.0}
        assert "inf_norm=0.5" in res.stderr

    def test_same_seed_byte_identical(self, random_fixture, tmp_path):
        edges, labels = random_fixture
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert run_cli("lexmin", str(edges), str(labels), "--seed", "9", "--out", str(a)).returncode == 0
        assert run_cli("lexmin", str(edges), str(labels), "--seed", "9", "--out", str(b)).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_lexmin_vs_fastlexmin(self, random_fixture, tmp_path):
        edges, labels = random_fixture
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        run_cli("lexmin", str(edges), str(labels), "--seed", "3", "--out", str(a))
        run_cli("fastlexmin", str(edges), str(labels), "--seed", "4", "--out", str(b))
        va, vb = read_tsv(a), read_tsv(b)
        assert max(abs(va[k] - vb[k]) for k in va) < 1e-8

    def test_infmin_runs(self, random_fixture, tmp_path):
        edges, labels = random_fixture
        out = tmp_path / "inf.tsv"
        res = run_cli("infmin", str(edges), str(labels), "--out", str(out))
        assert res.returncode == 0
        assert "wall_time_s=" in res.stderr

    def test_dirlexmin_chain(self, tmp_path):
        edges = tmp_path / "d.edges.tsv"
        edges.write_text("#directed\ns\tx\t1\nx\tt\t1\n")
        labels = tmp_path / "d.labels.tsv"
        labels.write_text("s\t1\nt\t0\n")
        out = tmp_path / "d.tsv"
        res = run_cli("dirlexmin", str(edges), str(labels), "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert read_tsv(out)["x"] == 0.5

    def test_lexmin_on_short_edges_exits_0(self, tmp_path):
        """The short-edge instance, written at full precision with its
        vertex ids in first-appearance order, solves."""
        g, v0 = short_edge_instance()
        edges, labels = tmp_path / "s.edges.tsv", tmp_path / "s.labels.tsv"
        rows = sorted(zip(g.edge_u.tolist(), g.edge_v.tolist(), g.edge_len.tolist()), key=lambda e: e[1])
        edges.write_text("#undirected\n" + "".join(f"{u}\t{v}\t{w!r}\n" for u, v, w in rows))
        labels.write_text("".join(f"{t}\t{float(v0.values[t])!r}\n" for t in v0.terminals().tolist()))
        res = run_cli("lexmin", str(edges), str(labels))
        assert res.returncode == 0 and "Traceback" not in res.stderr, res.stderr
        assert len(res.stdout.splitlines()) == g.n

    @pytest.mark.parametrize("args", [("lexmin", "{edges}", "{labels}"), ("bench", "--sizes", "20", "--labels", "4")])
    def test_solver_error_is_one_line(self, args, path_fixture, monkeypatch, capsys):
        """A solver error other than an ill-posed instance or a rejected
        input exits 1 with one ``error:`` line, in a solve and in bench."""
        from lexgraph import LexgraphError, cli

        def gives_up(*args, **kw):
            raise LexgraphError("the search would not end")

        for name in ("comp_lex_min", "comp_inf_min"):
            monkeypatch.setattr(cli, name, gives_up)
        edges, labels = path_fixture
        with pytest.raises(SystemExit) as exited:
            cli.main([arg.format(edges=edges, labels=labels) for arg in args])
        assert exited.value.code == 1
        assert capsys.readouterr().err == "error: the search would not end\n"

    def test_lexmin_rejects_directed(self, tmp_path):
        edges = tmp_path / "d.edges.tsv"
        edges.write_text("#directed\ns\tx\t1\nx\tt\t1\n")
        labels = tmp_path / "d.labels.tsv"
        labels.write_text("s\t1\nt\t0\n")
        assert run_cli("lexmin", str(edges), str(labels)).returncode == 2

    def test_infmin_accepts_directed(self, tmp_path):
        edges = tmp_path / "d.edges.tsv"
        edges.write_text("#directed\ns\tx\t1\nx\tt\t1\n")
        labels = tmp_path / "d.labels.tsv"
        labels.write_text("s\t1\nt\t0\n")
        out = tmp_path / "o.tsv"
        assert run_cli("infmin", str(edges), str(labels), "--out", str(out)).returncode == 0

    def test_dirlexmin_rejects_undirected(self, path_fixture):
        edges, labels = path_fixture
        assert run_cli("dirlexmin", str(edges), str(labels)).returncode == 2


class TestExitCodes:
    def test_parse_error_bad_header(self, tmp_path):
        edges = tmp_path / "bad.tsv"
        edges.write_text("a\tb\t1\n")
        labels = tmp_path / "l.tsv"
        labels.write_text("a\t0\n")
        assert run_cli("lexmin", str(edges), str(labels)).returncode == 3

    def test_parse_error_bad_length(self, tmp_path):
        edges = tmp_path / "bad.tsv"
        edges.write_text("#undirected\na\tb\t-1\n")
        labels = tmp_path / "l.tsv"
        labels.write_text("a\t0\n")
        assert run_cli("lexmin", str(edges), str(labels)).returncode == 3

    @pytest.mark.parametrize(
        "row, reason",
        [("a\ta\t1", "self-loop at vertex 0"), ("a\tb\t0", "invalid length 0.0")],
        ids=["self-loop", "zero-length"],
    )
    def test_bad_edge_row_is_one_line(self, tmp_path, row, reason):
        edges = tmp_path / "bad.tsv"
        edges.write_text(f"#undirected\n{row}\n")
        labels = tmp_path / "l.tsv"
        labels.write_text("a\t0\n")
        line = _assert_one_line_error(run_cli("lexmin", str(edges), str(labels)), 3)
        assert line.startswith(f"error: {edges}: ") and reason in line

    def test_parse_error_duplicate_label(self, path_fixture, tmp_path):
        edges, _ = path_fixture
        labels = tmp_path / "dup.tsv"
        labels.write_text("a\t0\na\t1\n")
        assert run_cli("lexmin", str(edges), str(labels)).returncode == 3

    def test_parse_error_unknown_vertex(self, path_fixture, tmp_path):
        edges, _ = path_fixture
        labels = tmp_path / "unk.tsv"
        labels.write_text("zz\t0\n")
        assert run_cli("lexmin", str(edges), str(labels)).returncode == 3

    def test_ill_posed_exit_2(self, tmp_path):
        edges = tmp_path / "two.tsv"
        edges.write_text("#undirected\na\tb\t1\nc\td\t1\n")
        labels = tmp_path / "l.tsv"
        labels.write_text("a\t0\n")
        res = run_cli("lexmin", str(edges), str(labels))
        assert res.returncode == 2
        assert "not well-posed" in res.stderr


class TestEdgeReader:
    def test_row_field_counts_are_checked_per_row(self, tmp_path):
        """A 2-field row then a 4-field row still total 3 fields a row."""
        edges = tmp_path / "bad.tsv"
        edges.write_text("#undirected\na\tb\t1\nb\tc\nc\td\t1\t2\n")
        labels = tmp_path / "l.tsv"
        labels.write_text("a\t0\n")
        line = _assert_one_line_error(run_cli("infmin", str(edges), str(labels)), 3)
        assert line == f"error: {edges}:3: expected 'u<TAB>v<TAB>len'"

    def test_bad_length_on_the_last_row_names_its_line(self, tmp_path):
        rows = [f"v{i}\tv{i + 1}\t1" for i in range(3000)] + ["v0\tv9\t1,5"]
        edges = tmp_path / "big.tsv"
        edges.write_text("#undirected\n" + "\n".join(rows) + "\n")
        labels = tmp_path / "l.tsv"
        labels.write_text("v0\t0\n")
        line = _assert_one_line_error(run_cli("infmin", str(edges), str(labels)), 3)
        assert line == f"error: {edges}:3002: bad length '1,5'"

    def test_file_mended_between_reads(self, tmp_path, monkeypatch):
        """The line of a bad row comes from a second read; a file fixed in
        between still gives one error naming the file."""
        from lexgraph import cli

        edges = tmp_path / "e.tsv"
        edges.write_text("#undirected\na\tb\tx\n")
        reads = iter([["#undirected", "a\tb\tx"], ["#undirected", "a\tb\t1"]])
        monkeypatch.setattr(cli, "_read_lines", lambda path: next(reads))
        with pytest.raises(cli.ParseError, match="changed while it was read"):
            cli.read_edge_file(str(edges))

    def test_blank_and_comment_rows_are_skipped(self, tmp_path):
        from lexgraph.cli import read_edge_file

        plain = tmp_path / "plain.tsv"
        plain.write_text("#undirected\na\tb\t1\nb\tc\t2\nc\ta\t0.5\n")
        noisy = tmp_path / "noisy.tsv"
        noisy.write_text("#undirected\n\na\tb\t1\n  \t \n# x\ty\tz\nb\tc\t2\n   # note\n\t\t\nc\ta\t 0.5 \n\n")
        (g, names), (h, noisy_names) = read_edge_file(str(plain)), read_edge_file(str(noisy))
        assert names == noisy_names == ["a", "b", "c"]
        for got, want in zip((h.edge_u, h.edge_v, h.edge_len), (g.edge_u, g.edge_v, g.edge_len)):
            assert np.array_equal(got, want)

    def test_crlf_line_endings(self, path_fixture, tmp_path):
        edges, labels = path_fixture
        crlf = tmp_path / "crlf.tsv"
        crlf.write_bytes(edges.read_bytes().replace(b"\n", b"\r\n"))
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert run_cli("lexmin", str(edges), str(labels), "--out", str(a)).returncode == 0
        res = run_cli("lexmin", str(crlf), str(labels), "--out", str(b))
        assert res.returncode == 0, res.stderr
        assert a.read_bytes() == b.read_bytes() == b"a\t0\nb\t0.5\nc\t1\n"

    def test_string_ids_keep_first_appearance_order(self, tmp_path):
        from lexgraph.cli import read_edge_file, write_assignment

        edges = tmp_path / "e.tsv"
        edges.write_text("#directed\nzeta\talpha\t1\nmid\tzeta\t1\nalpha\t10\t2\n10\tmid\t1\n")
        g, names = read_edge_file(str(edges))
        assert names == ["zeta", "alpha", "mid", "10"]
        assert (g.edge_u.tolist(), g.edge_v.tolist()) == ([0, 1, 2, 3], [1, 3, 0, 2])
        out = tmp_path / "o.tsv"
        write_assignment(str(out), names, np.array([0.5, 1 / 3, 2.0, -0.0]))
        assert out.read_text() == "zeta\t0.5\nalpha\t0.333333333333\nmid\t2\n10\t-0\n"

    def test_one_row_edge_file_solves(self, tmp_path):
        edges = tmp_path / "one.tsv"
        edges.write_text("#undirected\nx\ty\t2\n")
        labels = tmp_path / "l.tsv"
        labels.write_text("x\t1\ny\t0\n")
        res = run_cli("fastlexmin", str(edges), str(labels))
        assert res.returncode == 0, res.stderr
        assert res.stdout == "x\t1\ny\t0\n"
        assert "inf_norm=0.5 " in res.stderr


def _assert_one_line_error(res, code):
    assert res.returncode == code, res.stderr
    assert "Traceback" not in res.stderr
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), res.stderr
    return lines[0]


#: Every command that writes files, pointed at a directory that does not exist.
UNWRITABLE_COMMANDS = [
    ("infmin", "{edges}", "{labels}", "--out", "{target}"),
    ("lexmin", "{edges}", "{labels}", "--out", "{target}"),
    ("fastlexmin", "{edges}", "{labels}", "--out", "{target}"),
    ("dirlexmin", "{directed}", "{labels}", "--out", "{target}"),
    ("l0", "{edges}", "{labels}", "--k", "0", "--out", "{target}"),
    ("synth", "--kind", "gauss1d", "--per-cluster", "10", "--out-prefix", "{target}"),
    ("bench", "--sizes", "200", "--labels", "10", "--out", "{target}"),
]


class TestBadInput:
    def test_verify_directed_exits_2(self, tmp_path):
        edges = tmp_path / "d.edges.tsv"
        edges.write_text("#directed\ns\tx\t1\nx\tt\t1\n")
        labels = tmp_path / "d.labels.tsv"
        labels.write_text("s\t1\nt\t0\n")
        out = tmp_path / "d.out.tsv"
        out.write_text("s\t1\nx\t0.5\nt\t0\n")
        _assert_one_line_error(run_cli("verify", str(edges), str(labels), str(out)), 2)

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_label_exits_3(self, value, path_fixture, tmp_path):
        edges, _ = path_fixture
        labels = tmp_path / "bad.labels.tsv"
        labels.write_text(f"a\t{value}\nc\t1\n")
        line = _assert_one_line_error(run_cli("lexmin", str(edges), str(labels)), 3)
        assert f"{labels}:1:" in line

    def test_duplicate_assignment_exits_3(self, path_fixture, tmp_path):
        """A second row for a vertex is an error, as for labels: keeping the
        last row would let verify pass a file whose earlier row is wrong."""
        edges, labels = path_fixture
        out = tmp_path / "dup.out.tsv"
        out.write_text("a\t0\nb\t7\nc\t1\nb\t0.5\n")
        line = _assert_one_line_error(run_cli("verify", str(edges), str(labels), str(out)), 3)
        assert line == f"error: {out}:4: duplicate assignment for vertex 'b'"

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_assignment_exits_3(self, value, path_fixture, tmp_path):
        edges, labels = path_fixture
        out = tmp_path / "bad.out.tsv"
        out.write_text(f"a\t0\nb\t{value}\nc\t1\n")
        line = _assert_one_line_error(run_cli("verify", str(edges), str(labels), str(out)), 3)
        assert f"{out}:2:" in line and "must be finite" in line

    @pytest.mark.parametrize("kind", ["label", "assignment"])
    @pytest.mark.parametrize(
        "row, reason",
        [
            ("b\t1\t2", "expected 'vertex-id<TAB>value'"),
            ("zz\t1", "{kind} on unknown vertex 'zz'"),
            ("a\t1", "duplicate {kind} for vertex 'a'"),
            ("b\tinf", "{kind} value must be finite, got 'inf'"),
            ("b\tnan", "{kind} value must be finite, got 'nan'"),
        ],
        ids=["fields", "unknown", "duplicate", "inf", "nan"],
    )
    def test_bad_value_row_exits_3(self, kind, row, reason, path_fixture, tmp_path):
        """Label and assignment files share one reader and its messages."""
        edges, labels = path_fixture
        bad = tmp_path / f"bad.{kind}.tsv"
        bad.write_text(f"a\t0\n{row}\nb\t0.5\nc\t1\n")
        args = ("lexmin", edges, bad) if kind == "label" else ("verify", edges, labels, bad)
        line = _assert_one_line_error(run_cli(*map(str, args)), 3)
        assert line == f"error: {bad}:2: " + reason.format(kind=kind)

    def test_bench_generator_error_exits_3(self):
        line = _assert_one_line_error(run_cli("bench", "--sizes", "3", "--labels", "10"), 3)
        assert "more labels than vertices" in line

    def test_negative_tol_exits_3(self, path_fixture):
        edges, labels = path_fixture
        line = _assert_one_line_error(run_cli("verify", str(edges), str(labels), str(labels), "--tol", "-1"), 3)
        assert "--tol" in line

    @pytest.mark.parametrize("tol", ["0", "0.01"])
    @pytest.mark.parametrize("cmd", ["lexmin", "fastlexmin"])
    def test_solver_takes_no_tol(self, cmd, tol, tmp_path):
        """The solvers compare at the one tolerance ``core.DEFAULT_TOL``. With
        ``--tol 0`` or ``--tol 0.01``, lexmin ended in a traceback on this
        instance; now the option is a usage error that names it."""
        g, v0 = random_instance(1)
        edges, labels = tmp_path / "r.edges.tsv", tmp_path / "r.labels.tsv"
        rows = zip(g.edge_u.tolist(), g.edge_v.tolist(), g.edge_len.tolist())
        edges.write_text("#undirected\n" + "".join(f"{u}\t{v}\t{w!r}\n" for u, v, w in rows))
        terminals = v0.terminals()
        labels.write_text("".join(f"{t}\t{x!r}\n" for t, x in zip(terminals.tolist(), v0.values[terminals].tolist())))
        assert run_cli(cmd, str(edges), str(labels)).returncode == 0
        line = _assert_one_line_error(run_cli(cmd, str(edges), str(labels), "--tol", tol), 3)
        assert "--tol" in line

    @pytest.mark.parametrize("cmd", UNWRITABLE_COMMANDS, ids=lambda c: c[0])
    def test_unwritable_output_exits_3(self, cmd, path_fixture, tmp_path):
        edges, labels = path_fixture
        directed = tmp_path / "d.edges.tsv"
        directed.write_text("#directed\nc\tb\t1\nb\ta\t1\n")
        target = tmp_path / "missing" / "out"
        args = [arg.format(edges=edges, directed=directed, labels=labels, target=target) for arg in cmd]
        line = _assert_one_line_error(run_cli(*args), 3)
        assert line.startswith(f"error: cannot write {target}")

    @pytest.mark.parametrize("cmd", ["infmin", "lexmin", "fastlexmin", "dirlexmin", "l0", "verify"])
    def test_header_only_edge_file_exits_0(self, cmd, tmp_path):
        """No edges and no labels is an empty instance with an empty answer."""
        edges = tmp_path / "e.edges.tsv"
        edges.write_text("#directed\n" if cmd == "dirlexmin" else "#undirected\n")
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        extra = {"l0": ("--k", "1"), "verify": (str(empty),)}.get(cmd, ())
        res = run_cli(cmd, str(edges), str(empty), *extra)
        assert res.returncode == 0 and "Traceback" not in res.stderr, res.stderr
        assert res.stdout == ""


#: (arguments, exit code, text of the error line) of generator and bench
#: inputs that cannot give a readable, well-posed instance.
GENERATOR_ERRORS = [
    (("synth", "--kind", "cube-knn", "--n", "5", "--knn", "8", "--labels", "2"), 3, "knn"),
    (("synth", "--kind", "cube-knn", "--dim", "0"), 3, "--dim"),
    (("synth", "--kind", "cube-knn", "--knn", "0"), 3, "--knn"),
    (("synth", "--kind", "random-regular", "--degree", "0"), 3, "--degree"),
    (("synth", "--kind", "random-regular", "--n", "0"), 3, "--n"),
    (("synth", "--kind", "random-digraph", "--labels", "0"), 3, "--labels"),
    (("synth", "--kind", "gauss1d", "--per-cluster", "0"), 3, "--per-cluster"),
    (("synth", "--kind", "gauss1d", "--cluster-std", "nan"), 3, "--cluster-std"),
    (("synth", "--kind", "gauss1d", "--cluster-std", "inf"), 3, "--cluster-std"),
    (("synth", "--kind", "gauss1d", "--cluster-std", "-1"), 3, "--cluster-std"),
    (("bench", "--sizes", "50", "--labels", "0"), 3, "--labels"),
    (("bench", "--sizes", "50", "--degree", "0"), 3, "--degree"),
    (("bench", "--sizes", "50", "--repeats", "0"), 3, "--repeats"),
    (("bench", "--sizes", "8", "--kind", "cube-knn", "--labels", "2"), 3, "knn"),
    (("bench", "--sizes", "50", "--labels", "1", "--degree", "1"), 2, "not well-posed"),
]


#: (edge file, label file) whose label span over the shortest edge length
#: overflows float64, and the solver commands that take it.
OVERFLOW_FILES = {
    "path5": ("#undirected\na\tb\t1\nb\tc\t1\nc\td\t1e-300\nd\te\t1\n", "a\t1e308\ne\t-1e308\n"),
    "path3": ("#undirected\na\tb\t1e-10\nb\tc\t1e-10\n", "a\t1e300\nc\t0\n"),
    "directed4": ("#directed\na\tb\t1\nb\tc\t1e-300\nc\td\t1\n", "a\t1e308\nd\t-1e308\n"),
}
OVERFLOW_COMMANDS = [
    *((name, cmd) for name in ("path5", "path3") for cmd in ("infmin", "lexmin", "fastlexmin")),
    ("directed4", "infmin"),
    ("directed4", "dirlexmin"),
]


@pytest.mark.parametrize("name,cmd", OVERFLOW_COMMANDS, ids=lambda v: v)
def test_overflowing_gradients_exit_3(name, cmd, tmp_path):
    """Labels whose gradients would overflow exit 3 with one line, not with
    a traceback or an inf_norm of inf."""
    edges, labels = tmp_path / "o.edges.tsv", tmp_path / "o.labels.tsv"
    edges.write_text(OVERFLOW_FILES[name][0])
    labels.write_text(OVERFLOW_FILES[name][1])
    line = _assert_one_line_error(run_cli(cmd, str(edges), str(labels)), 3)
    assert "overflow float64" in line


class TestUsageErrors:
    @pytest.mark.parametrize(
        "args",
        [
            ("l0", "{edges}", "{labels}", "--k", "abc"),
            ("l0", "{edges}", "{labels}", "--k", "-1"),
            ("verify", "{edges}", "{labels}", "{labels}", "--tol", "abc"),
            ("bench", "--sizes", "x"),
        ],
        ids=lambda a: " ".join(a[-2:]),
    )
    def test_usage_error_exits_3(self, args, path_fixture):
        edges, labels = path_fixture
        res = run_cli(*(arg.format(edges=edges, labels=labels) for arg in args))
        line = _assert_one_line_error(res, 3)
        assert args[-2] in line

    @pytest.mark.parametrize(
        "args, code, needle", GENERATOR_ERRORS, ids=[" ".join(args) for args, _, _ in GENERATOR_ERRORS]
    )
    def test_generator_input_errors(self, args, code, needle, tmp_path):
        """Generator and bench inputs that cannot give a readable, well-posed
        instance exit with one line and write no files."""
        prefix = tmp_path / "s"
        extra = ("--out-prefix", str(prefix)) if args[0] == "synth" else ()
        line = _assert_one_line_error(run_cli(*args, *extra), code)
        assert needle in line
        assert not list(tmp_path.iterdir())

    def test_help_exits_0(self):
        res = run_cli("infmin", "--help")
        assert res.returncode == 0 and "Usage:" in res.stdout


class TestVerify:
    def test_round_trip(self, random_fixture, tmp_path):
        edges, labels = random_fixture
        out = tmp_path / "out.tsv"
        run_cli("lexmin", str(edges), str(labels), "--seed", "2", "--out", str(out))
        res = run_cli("verify", str(edges), str(labels), str(out))
        assert res.returncode == 0, res.stderr

    def test_perturbed_fails(self, random_fixture, tmp_path):
        edges, labels = random_fixture
        out = tmp_path / "out.tsv"
        run_cli("lexmin", str(edges), str(labels), "--seed", "2", "--out", str(out))
        rows = out.read_text().splitlines()
        # bump one free vertex (v1 is unlabeled) by 0.1
        bumped = []
        for row in rows:
            name, val = row.split("\t")
            if name == "v1":
                val = str(float(val) + 0.1)
            bumped.append(f"{name}\t{val}")
        out.write_text("\n".join(bumped) + "\n")
        res = run_cli("verify", str(edges), str(labels), str(out))
        assert res.returncode == 1
        assert "violation" in res.stderr

    def test_many_violations_are_summarized(self, tmp_path):
        # path of 50 vertices labeled 0 and 1 at its ends; the zigzag
        # assignment 0, 1, 0, ... keeps the labels and fails at all 48 free
        # vertices, the worst (|max_grad + min_grad| = 2) at v1
        edges = tmp_path / "p.edges.tsv"
        edges.write_text("#undirected\n" + "".join(f"v{i}\tv{i + 1}\t1\n" for i in range(49)))
        labels = tmp_path / "p.labels.tsv"
        labels.write_text("v0\t0\nv49\t1\n")
        out = tmp_path / "p.out.tsv"
        out.write_text("".join(f"v{i}\t{i % 2}\n" for i in range(50)))
        res = run_cli("verify", str(edges), str(labels), str(out))
        assert res.returncode == 1
        lines = res.stderr.splitlines()
        assert len(lines) <= 22, res.stderr
        assert lines[0].startswith("violations\t48\tworst\tv1\t")
        assert sum(line.startswith("violation\t") for line in lines) == 20


    def test_changed_labels_are_summarized(self, tmp_path):
        # star of 25 labeled leaves around a free center; the assignment
        # moves every label, so 20 are named and 5 counted
        edges = tmp_path / "s.edges.tsv"
        edges.write_text("#undirected\n" + "".join(f"c\tv{i}\t1\n" for i in range(25)))
        labels = tmp_path / "s.labels.tsv"
        labels.write_text("".join(f"v{i}\t0\n" for i in range(25)))
        out = tmp_path / "s.out.tsv"
        out.write_text("c\t1\n" + "".join(f"v{i}\t1\n" for i in range(25)))
        res = run_cli("verify", str(edges), str(labels), str(out))
        assert res.returncode == 1
        lines = [line for line in res.stderr.splitlines() if line.startswith("assignment does not extend")]
        named = ", ".join(f"v{i}" for i in range(20))
        assert lines == [f"assignment does not extend the labels at: {named}, … and 5 more"], res.stderr


class TestL0Command:
    def test_exact_with_sidecar(self, tmp_path):
        edges = tmp_path / "p.edges.tsv"
        edges.write_text("#undirected\na\tb\t1\nb\tc\t1\n")
        labels = tmp_path / "p.labels.tsv"
        labels.write_text("a\t0\nb\t10\nc\t0\n")
        out = tmp_path / "out.tsv"
        res = run_cli("l0", str(edges), str(labels), "--k", "1", "--out", str(out))
        assert res.returncode == 0, res.stderr
        meta = Path(str(out) + ".l0meta.tsv").read_text()
        assert "alpha\t0" in meta
        assert "removed\tb" in meta

    def test_approx_mode(self, random_fixture, tmp_path):
        edges, labels = random_fixture
        out = tmp_path / "out.tsv"
        res = run_cli("l0", str(edges), str(labels), "--k", "1", "--mode", "approx", "--out", str(out))
        assert res.returncode == 0, res.stderr


class TestSynthAndBench:
    def test_gauss1d_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for prefix in (a, b):
            res = run_cli("synth", "--kind", "gauss1d", "--per-cluster", "30", "--seed", "11", "--out-prefix", str(prefix))
            assert res.returncode == 0, res.stderr
        assert (tmp_path / "a.edges.tsv").read_bytes() == (tmp_path / "b.edges.tsv").read_bytes()
        assert (tmp_path / "a.labels.tsv").read_bytes() == (tmp_path / "b.labels.tsv").read_bytes()

    def test_cube_knn_degree(self, tmp_path):
        prefix = tmp_path / "c"
        res = run_cli("synth", "--kind", "cube-knn", "--n", "200", "--labels", "20", "--seed", "3", "--out-prefix", str(prefix))
        assert res.returncode == 0, res.stderr
        deg: dict[str, int] = {}
        rows = (tmp_path / "c.edges.tsv").read_text().splitlines()[1:]
        for row in rows:
            u, v, _ = row.split("\t")
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        assert min(deg.values()) >= 8
        assert (tmp_path / "c.truth.tsv").exists()

    def test_random_digraph_solves(self, tmp_path):
        prefix = tmp_path / "d"
        res = run_cli("synth", "--kind", "random-digraph", "--n", "2000", "--seed", "0", "--out-prefix", str(prefix))
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "d.edges.tsv").read_text().startswith("#directed\n")
        out = tmp_path / "d.out.tsv"
        res = run_cli("dirlexmin", str(tmp_path / "d.edges.tsv"), str(tmp_path / "d.labels.tsv"), "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert not [line for line in res.stderr.splitlines() if line.startswith("warning:")], res.stderr
        assert len(out.read_text().splitlines()) == len(
            {name for row in (tmp_path / "d.edges.tsv").read_text().splitlines()[1:] for name in row.split("\t")[:2]}
        )

    def test_env_seed_fallback(self, tmp_path):
        synth = ("synth", "--kind", "gauss1d", "--per-cluster", "10")
        res = run_cli(*synth, "--out-prefix", str(tmp_path / "e"), env={"LEXGRAPH_SEED": "7"})
        assert res.returncode == 0, res.stderr
        res = run_cli(*synth, "--seed", "7", "--out-prefix", str(tmp_path / "s"))
        assert res.returncode == 0, res.stderr
        for suffix in (".edges.tsv", ".labels.tsv"):
            assert (tmp_path / ("e" + suffix)).read_bytes() == (tmp_path / ("s" + suffix)).read_bytes()

    def test_bench_csv(self, tmp_path):
        out = tmp_path / "bench.csv"
        res = run_cli("bench", "--sizes", "200,400", "--labels", "10", "--seed", "2", "--out", str(out))
        assert res.returncode == 0, res.stderr
        rows = out.read_text().splitlines()
        assert rows[0] == "algorithm,n,m,seconds"
        assert len(rows) == 1 + 2 * 2  # two solvers x two sizes


SEEDED_COMMANDS = [
    ("infmin", "{edges}", "{labels}"),
    ("lexmin", "{edges}", "{labels}"),
    ("fastlexmin", "{edges}", "{labels}"),
    ("dirlexmin", "{edges}", "{labels}"),
    ("synth", "--kind", "gauss1d", "--per-cluster", "10", "--out-prefix", "{prefix}"),
    ("bench", "--sizes", "200", "--labels", "10"),
]


def _seeded_command(cmd, path_fixture, tmp_path):
    edges, labels = path_fixture
    fields = {"edges": str(edges), "labels": str(labels), "prefix": str(tmp_path / "s")}
    return [arg.format(**fields) for arg in cmd]


def _assert_seed_error(res, source):
    assert res.returncode == 3, res.stderr
    assert "Traceback" not in res.stderr
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and source in lines[0], res.stderr


class TestBadSeed:
    @pytest.mark.parametrize("cmd", SEEDED_COMMANDS, ids=lambda c: c[0])
    def test_bad_env_seed_exits_3(self, cmd, path_fixture, tmp_path):
        res = run_cli(*_seeded_command(cmd, path_fixture, tmp_path), env={"LEXGRAPH_SEED": "abc"})
        _assert_seed_error(res, "LEXGRAPH_SEED")

    @pytest.mark.parametrize("cmd", SEEDED_COMMANDS, ids=lambda c: c[0])
    def test_negative_seed_exits_3(self, cmd, path_fixture, tmp_path):
        res = run_cli(*_seeded_command(cmd, path_fixture, tmp_path), "--seed", "-1")
        _assert_seed_error(res, "--seed")
