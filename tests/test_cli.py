import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest


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


def _assert_one_line_error(res, code):
    assert res.returncode == code, res.stderr
    assert "Traceback" not in res.stderr
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), res.stderr
    return lines[0]


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

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_assignment_exits_3(self, value, path_fixture, tmp_path):
        edges, labels = path_fixture
        out = tmp_path / "bad.out.tsv"
        out.write_text(f"a\t0\nb\t{value}\nc\t1\n")
        line = _assert_one_line_error(run_cli("verify", str(edges), str(labels), str(out)), 3)
        assert f"{out}:2:" in line and "must be finite" in line

    def test_bench_generator_error_exits_3(self):
        line = _assert_one_line_error(run_cli("bench", "--sizes", "3", "--labels", "10"), 3)
        assert "more labels than vertices" in line

    def test_negative_tol_exits_3(self, path_fixture):
        edges, labels = path_fixture
        line = _assert_one_line_error(run_cli("lexmin", str(edges), str(labels), "--tol", "-1"), 3)
        assert "--tol" in line


class TestUsageErrors:
    @pytest.mark.parametrize(
        "args",
        [
            ("l0", "{edges}", "{labels}", "--k", "abc"),
            ("l0", "{edges}", "{labels}", "--k", "-1"),
            ("infmin", "{edges}", "{labels}", "--tol", "abc"),
            ("bench", "--sizes", "x"),
        ],
        ids=lambda a: " ".join(a[-2:]),
    )
    def test_usage_error_exits_3(self, args, path_fixture):
        edges, labels = path_fixture
        res = run_cli(*(arg.format(edges=edges, labels=labels) for arg in args))
        line = _assert_one_line_error(res, 3)
        assert args[-2] in line

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
        res = run_cli("l0", str(edges), str(labels), "--k", "1", "--mode", "approx", "--seed", "4", "--out", str(out))
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
    ("l0", "{edges}", "{labels}", "--k", "1", "--mode", "approx"),
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
