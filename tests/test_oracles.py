import ast
import inspect
import re
from pathlib import Path

import click
import numpy as np
import pytest

import lexgraph
import lexgraph.cli
from lexgraph import Graph, PartialAssignment, SizeGuardError, verify_max_min
from lexgraph.oracles import (
    apsp_floyd_warshall,
    brute_lex_min,
    brute_min_vc,
    brute_outlier,
    brute_steepest_path,
    p_laplacian_min,
)

from conftest import random_instance


class TestFloydWarshall:
    def test_triangle_detour(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 3.0)])
        dist = apsp_floyd_warshall(g)
        assert dist[0, 2] == pytest.approx(2.0)

    def test_disconnected_infinite(self):
        g = Graph(3, [(0, 1, 1.0)])
        assert np.isinf(apsp_floyd_warshall(g)[0, 2])

    def test_symmetric_for_undirected(self):
        g, _ = random_instance(10, n_range=(10, 10))
        dist = apsp_floyd_warshall(g)
        assert np.allclose(dist, dist.T)

    def test_zero_diagonal_and_triangle_inequality(self):
        g, _ = random_instance(14, n_range=(9, 9))
        dist = apsp_floyd_warshall(g)
        assert np.all(np.diag(dist) == 0)
        for k in range(g.n):
            assert np.all(dist <= dist[:, k, None] + dist[None, k, :] + 1e-12)

    def test_size_guard(self):
        g = Graph(501, [(i, i + 1, 1.0) for i in range(500)])
        with pytest.raises(SizeGuardError):
            apsp_floyd_warshall(g)


class TestBruteSteepest:
    def test_two_terminal_path(self, path3):
        g, v0 = path3
        p = brute_steepest_path(g, v0)
        assert p.vertices == (2, 1, 0) and p.gradient == pytest.approx(0.5)

    def test_constant_labels(self):
        g = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        p = brute_steepest_path(g, PartialAssignment([0.5, None, None, 0.5]))
        assert p.gradient == pytest.approx(0.0)

    def test_single_terminal_flat_walk(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        p = brute_steepest_path(g, PartialAssignment([0.25, None, None]))
        assert p.gradient == 0.0
        assert p.vertices[0] == 0 and p.vertices[-1] == 0


class TestBruteLexMin:
    def test_passes_averaging_check(self):
        for seed in range(10):
            g, v0 = random_instance(seed)
            out = brute_lex_min(g, v0)
            assert verify_max_min(g, v0, out, tol=1e-6).ok

    def test_size_guard(self):
        g = Graph(61, [(i, i + 1, 1.0) for i in range(60)])
        v = [None] * 61
        v[0] = 0.0
        with pytest.raises(SizeGuardError):
            brute_lex_min(g, PartialAssignment(v))


class TestBruteMinVc:
    def test_empty(self):
        assert brute_min_vc(4, set()) == frozenset()

    def test_star_center(self):
        assert brute_min_vc(4, {(0, 1), (0, 2), (0, 3)}) == frozenset({0})


class TestBruteOutlier:
    def test_k_zero_is_plain_alpha(self, path3):
        g, v0 = path3
        alpha, dropped = brute_outlier(g, v0, 0)
        assert alpha == pytest.approx(0.5) and dropped == frozenset()

    def test_obvious_outlier(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        alpha, dropped = brute_outlier(g, PartialAssignment([0.0, 10.0, 0.0]), 1)
        assert alpha == pytest.approx(0.0) and dropped == frozenset({1})


class TestPLaplacian:
    def test_p2_harmonic_on_path(self):
        g = Graph(5, [(i, i + 1, 1.0) for i in range(4)])
        v0 = PartialAssignment([0.0, None, None, None, 1.0])
        res = p_laplacian_min(g, v0, p=2, tol=1e-12)
        assert res.converged
        assert np.allclose(res.values, [0, 0.25, 0.5, 0.75, 1.0], atol=1e-6)

    def test_constant_any_p(self):
        g = Graph(4, [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 2.0)])
        v0 = PartialAssignment([0.3, None, None, 0.3])
        for p in (2, 8, 64):
            res = p_laplacian_min(g, v0, p=p)
            assert np.allclose(res.values, 0.3, atol=1e-8)

    def test_p64_close_to_lex(self):
        g, v0 = random_instance(77, n_range=(6, 6), value_range=(0.0, 1.0))
        res = p_laplacian_min(g, v0, p=64, tol=1e-11)
        lex = brute_lex_min(g, v0)
        assert np.abs(res.values - lex).max() < 0.05

    def test_monotone_approach_statistics(self):
        ps = (8, 16, 32, 64)
        exceptions = 0
        means = {p: [] for p in ps}
        for seed in range(20):
            g, v0 = random_instance(seed + 300, n_range=(5, 8), value_range=(0.0, 1.0))
            lex = brute_lex_min(g, v0)
            dists = []
            for p in ps:
                vals = p_laplacian_min(g, v0, p=p, tol=1e-11).values
                d = float(np.abs(vals - lex).max())
                dists.append(d)
                means[p].append(d)
            for a, b in zip(dists, dists[1:]):
                if b > a + 5e-3:
                    exceptions += 1
                    print(f"descent exception at seed {seed + 300}: {a:.4f} -> {b:.4f}")
        # aggregate trend must hold even if single steps wobble at tolerance
        agg = [float(np.mean(means[p])) for p in ps]
        assert all(b <= a + 1e-3 for a, b in zip(agg, agg[1:]))

    def test_odd_p_rejected(self, path3):
        g, v0 = path3
        with pytest.raises(ValueError):
            p_laplacian_min(g, v0, p=3)


def _imported_modules(tree: ast.AST):
    """Every module an import statement names, at any depth, as written
    (``from . import oracles`` yields ``.oracles``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            yield base
            yield from (f"{base}.{alias.name}" if node.module else base + alias.name for alias in node.names)


def test_no_production_module_imports_oracles():
    """The oracles are the independent reference; production code that used
    them would make the oracle-equality tests circular. Likewise every graph
    propagation runs on scipy's Dijkstra, so no module imports heapq (the
    next test pins where scipy's is imported); and both l0 solvers work on
    the one terminal-pair gradient matrix, so l0reg imports no
    steepest-path search."""
    src = Path(lexgraph.__file__).parent
    modules = sorted(src.glob("*.py"))
    assert len(modules) >= 9
    for path in modules:
        names = set(_imported_modules(ast.parse(path.read_text(), filename=str(path))))
        assert "heapq" not in names, path.name
        if path.name == "oracles.py":
            continue
        assert not {name for name in names if name.split(".")[-1] == "oracles"}, path.name
        if path.name == "l0reg.py":
            assert not {name for name in names if "steepest" in name.split(".")}, path.name


def _import_sites(node: ast.AST, where=None):
    """(enclosing function or None, name) for every name an import statement
    binds, as a dotted path: ``from scipy.sparse import csgraph`` binds
    ``scipy.sparse.csgraph``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            yield from ((where, alias.name) for alias in child.names)
        elif isinstance(child, ast.ImportFrom):
            base = "." * child.level + (child.module or "")
            yield from ((where, base if alias.name == "*" else f"{base}.{alias.name}") for alias in child.names)
        else:
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            yield from _import_sites(child, inner)


def test_scipy_shortest_paths_imported_only_by_the_kernel():
    """``core._scipy_dijkstra`` alone imports scipy's Dijkstra, and no module
    imports another scipy shortest-path search or a package that holds one,
    so no change adds a second shortest-path entry beside the kernel."""
    searches = ("dijkstra", "shortest_path", "bellman_ford", "johnson", "floyd_warshall", "yen")
    entries = {f"scipy.sparse.csgraph.{name}" for name in searches}
    holders = {"scipy", "scipy.sparse", "scipy.sparse.csgraph"}
    sites = [
        (path.stem, where, name)
        for path in sorted(Path(lexgraph.__file__).parent.glob("*.py"))
        for where, name in _import_sites(ast.parse(path.read_text(), filename=str(path)))
        if name in entries | holders
    ]
    assert sites == [("core", "_scipy_dijkstra", "scipy.sparse.csgraph.dijkstra")]


def _referenced_names(tree: ast.AST):
    """Every name a module reads, imports or takes as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_public_names_are_used_or_documented():
    """Every name in ``lexgraph.__all__`` is used by the library itself
    (outside the package ``__init__``) or named in README's API section, so
    no test harness ships as public API."""
    src = Path(lexgraph.__file__).parent
    used = set()
    for path in src.glob("*.py"):
        if path.name != "__init__.py":
            used.update(_referenced_names(ast.parse(path.read_text(), filename=str(path))))
    readme = (src.parents[1] / "README.md").read_text()
    api = readme.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"\w+", api))
    assert not [name for name in lexgraph.__all__ if name not in used | documented]


def test_graph_init_has_no_per_edge_loop():
    """``Graph.__init__`` validates and builds with array operations; a
    ``for``/``while`` statement or a comprehension there would bring back the
    per-edge Python loop that dominated loading large edge files."""
    path = Path(lexgraph.__file__).parent / "core.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    graph = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Graph")
    init = next(node for node in graph.body if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    found = [type(node).__name__ for node in ast.walk(init) if isinstance(node, loops)]
    assert not found, found


def test_graph_builds_no_dict():
    """``Graph`` finds edges by a binary search over its sorted edge keys; a
    dict literal, dict comprehension or ``dict(...)`` call anywhere in the
    class would bring back the per-edge Python lookup and its memory."""
    path = Path(lexgraph.__file__).parent / "core.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    graph = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Graph")
    found = [
        ast.unparse(node)
        for node in ast.walk(graph)
        if isinstance(node, (ast.Dict, ast.DictComp))
        or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "dict")
    ]
    assert not found, found


def test_only_the_sampling_draws_random_numbers():
    """The star and vertex searches are deterministic: in steepest.py only
    ``_sample_split``, which draws a random edge and vertex, and
    ``steepest_path``, which seeds it, mention an ``rng`` or
    ``default_rng``."""
    path = Path(lexgraph.__file__).parent / "steepest.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    random_names = {"rng", "default_rng"}
    found = set()
    for node in tree.body:
        names = set(_referenced_names(node)) | {arg.arg for arg in ast.walk(node) if isinstance(arg, ast.arg)}
        if names & random_names:
            found.add(getattr(node, "name", ast.unparse(node)[:40]))
    assert found == {"_sample_split", "steepest_path"}, found


def test_only_the_checks_take_a_tolerance():
    """The solvers, searches and l0 entry points compare at the one tolerance
    ``core.DEFAULT_TOL``: of the public callables only the pressure test,
    which ``_nearly_flat_path`` runs at 0, and the max-min check take a
    ``tol``, and no solver command has a ``--tol``."""
    takes_tol = set()
    for name in lexgraph.__all__:
        obj = getattr(lexgraph, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except ValueError:  # the exception classes inherit a builtin __init__
            continue
        if "tol" in params:
            takes_tol.add(name)
    assert takes_tol == {"pressure_exceeds", "verify_max_min"}
    commands = lexgraph.cli.main.commands
    solvers = set(commands) - {"verify", "synth", "bench"}
    assert solvers == {"infmin", "lexmin", "fastlexmin", "dirlexmin", "l0"}
    with_tol = [name for name in solvers for param in commands[name].params if "--tol" in param.opts]
    assert not with_tol, with_tol
    assert any("--tol" in param.opts for param in commands["verify"].params)


#: Every module constant and CLI option, pinned. A new knob fails
#: ``test_knob_inventory`` until it is added here and CHANGES.md says why it
#: is needed.
KNOWN_CONSTANTS = {
    "cli.EXIT_ILL_POSED", "cli.EXIT_PARSE", "cli.POSITIVE", "cli.VERIFY_SHOWN",
    "core.DEFAULT_TOL", "core.DISTINCT_TOL", "core.FREE", "core.PAIR_DISTANCE_BYTES", "core._RADIUS_SLACK",
    "l0reg.REACHED", "l0reg.ROUNDS", "l0reg.SHRINK",
    "solvers.DENSE_MAX",
}
KNOWN_OPTIONS = {
    **dict.fromkeys(["infmin", "lexmin", "fastlexmin", "dirlexmin"], {"--out", "--seed"}),
    "l0": {"--k", "--mode", "--out"},
    "verify": {"--tol"},
    "synth": {
        "--cluster-std", "--degree", "--dim", "--kind", "--knn", "--labels", "--n", "--out-prefix",
        "--per-cluster", "--seed",
    },
    "bench": {"--degree", "--kind", "--labels", "--out", "--repeats", "--seed", "--sizes"},
}


def test_knob_inventory():
    """The module-level UPPERCASE constants of every library module, read by
    AST, and the options of every CLI command match the pinned sets."""
    constants = set()
    for path in Path(lexgraph.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            constants.update(
                f"{path.stem}.{t.id}" for t in targets if isinstance(t, ast.Name) and t.id.lstrip("_").isupper()
            )
    assert constants == KNOWN_CONSTANTS
    options = {
        name: {opt for param in command.params if isinstance(param, click.Option) for opt in param.opts}
        for name, command in lexgraph.cli.main.commands.items()
    }
    assert options == KNOWN_OPTIONS
