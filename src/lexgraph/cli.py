"""Command line surface: solve, verify, generate, benchmark.

File formats are TSV throughout. Edge lists start with a "#directed" or
"#undirected" header line followed by "u<TAB>v<TAB>len" rows; string vertex
ids are mapped to dense integers in first-appearance order. Label files hold
"vertex-id<TAB>value" rows. Exit codes: 0 ok, 2 instance not well-posed
(or wrong graph kind for the command), 3 bad input (a file that does not
parse, or a usage error such as a bad option value), always with one
"error:" line on stderr.
"""

from __future__ import annotations

import csv
import math
import os
import sys
import time
from pathlib import Path

import click
import numpy as np

from .core import (
    Graph,
    GraphFormatError,
    LexgraphError,
    NotWellPosedError,
    PartialAssignment,
)
from .l0reg import outlier_approx, outlier_exact
from .solvers import (
    comp_fast_lex_min,
    comp_inf_min,
    comp_lex_min,
    directed_lex_min,
    verify_max_min,
)
from . import synth


class ParseError(LexgraphError):
    pass


EXIT_ILL_POSED = 2
EXIT_PARSE = 3

#: verify prints a count and the worst violation, then only this many
#: ``violation`` lines, so a bad assignment on a large graph stays readable.
VERIFY_SHOWN = 20


def _default_seed() -> int:
    return _parse_seed(os.environ.get("LEXGRAPH_SEED", "0"), "LEXGRAPH_SEED")


def _parse_seed(raw: str, source: str) -> int:
    """A seed must be a non-negative integer; anything else exits 3."""
    try:
        seed = int(raw)
    except ValueError:
        seed = -1
    if seed < 0:
        click.echo(f"error: {source} must be a non-negative integer, got {raw!r}", err=True)
        sys.exit(EXIT_PARSE)
    return seed


def _resolve_seed(ctx: click.Context, param: click.Parameter, value: str | None) -> int:
    """--seed if given, else $LEXGRAPH_SEED, else 0."""
    return _default_seed() if value is None else _parse_seed(value, "--seed")


def _check_tol(ctx: click.Context, param: click.Parameter, value: float) -> float:
    if not 0.0 <= value < math.inf:  # also rejects nan
        raise click.BadParameter(f"must be a finite non-negative number, got {value!r}")
    return value


def _parse_sizes(ctx: click.Context, param: click.Parameter, value: str) -> list[int]:
    try:
        sizes = [int(raw) for raw in value.split(",")]
    except ValueError:
        sizes = []
    if not sizes or min(sizes) <= 0:
        raise click.BadParameter(f"must be comma-separated positive integers, got {value!r}")
    return sizes


def read_edge_file(path: str) -> tuple[Graph, list[str]]:
    """Graph plus the vertex-name table (dense id -> original string id)."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise ParseError(f"{path}: empty edge file")
    header = lines[0].strip()
    if header == "#directed":
        directed = True
    elif header == "#undirected":
        directed = False
    else:
        raise ParseError(f"{path}: first line must be '#directed' or '#undirected'")
    names: list[str] = []
    ids: dict[str, int] = {}
    rows: list[tuple[int, int, float]] = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 3:
            raise ParseError(f"{path}:{ln}: expected 'u<TAB>v<TAB>len'")
        u, v, raw = parts
        try:
            length = float(raw)
        except ValueError as exc:
            raise ParseError(f"{path}:{ln}: bad length {raw!r}") from exc
        for name in (u, v):
            if name not in ids:
                ids[name] = len(names)
                names.append(name)
        rows.append((ids[u], ids[v], length))
    try:
        graph = Graph(len(names), rows, directed=directed)
    except GraphFormatError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return graph, names


def read_label_file(path: str, names: list[str]) -> PartialAssignment:
    ids = {name: i for i, name in enumerate(names)}
    labels: dict[int, float] = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    for ln, line in enumerate(lines, start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 2:
            raise ParseError(f"{path}:{ln}: expected 'vertex-id<TAB>value'")
        name, raw = parts
        if name not in ids:
            raise ParseError(f"{path}:{ln}: label on unknown vertex {name!r}")
        if ids[name] in labels:
            raise ParseError(f"{path}:{ln}: duplicate label for vertex {name!r}")
        try:
            value = float(raw)
        except ValueError as exc:
            raise ParseError(f"{path}:{ln}: bad value {raw!r}") from exc
        if not math.isfinite(value):
            raise ParseError(f"{path}:{ln}: label value must be finite, got {raw!r}")
        labels[ids[name]] = value
    return PartialAssignment.from_dict(len(names), labels)


def read_assignment_file(path: str, names: list[str]) -> np.ndarray:
    ids = {name: i for i, name in enumerate(names)}
    values = np.full(len(names), np.nan)
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    for ln, line in enumerate(lines, start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 2 or parts[0] not in ids:
            raise ParseError(f"{path}:{ln}: bad assignment row {line!r}")
        try:
            value = float(parts[1])
        except ValueError as exc:
            raise ParseError(f"{path}:{ln}: bad value {parts[1]!r}") from exc
        if not math.isfinite(value):
            raise ParseError(f"{path}:{ln}: assignment value must be finite, got {parts[1]!r}")
        values[ids[parts[0]]] = value
    if np.isnan(values).any():
        missing = [names[i] for i in np.flatnonzero(np.isnan(values))][:5]
        raise ParseError(f"{path}: assignment misses vertices (e.g. {missing})")
    return values


def write_assignment(path: str | None, names: list[str], values: np.ndarray) -> None:
    out = sys.stdout if path is None else open(path, "w")
    try:
        for name, val in zip(names, values):
            out.write(f"{name}\t{val:.12g}\n")
    finally:
        if path is not None:
            out.close()


def _solve_command(solver_name: str, graph_file: str, labels_file: str, seed: int, tol: float, out: str | None):
    started = time.perf_counter()
    try:
        graph, names = read_edge_file(graph_file)
        v0 = read_label_file(labels_file, names)
    except ParseError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_PARSE)
    try:
        if solver_name == "dirlexmin":
            if not graph.directed:
                click.echo("error: dirlexmin needs a '#directed' edge file", err=True)
                sys.exit(EXIT_ILL_POSED)
            directed = directed_lex_min(graph, v0, seed=seed, tol=tol)
            result = directed.result
            for amb in directed.ambiguous:
                click.echo(
                    f"ambiguous\t{names[amb.vertex]}\t[{amb.lower:.12g}, {amb.upper:.12g}]"
                    f"\t-> {amb.assigned:.12g}",
                    err=True,
                )
            for eid, grad in directed.violations:
                click.echo(f"warning: residual directed gradient {grad:.3e} on edge {eid}", err=True)
        else:
            if graph.directed and solver_name != "infmin":
                click.echo(f"error: {solver_name} needs an undirected graph; use dirlexmin", err=True)
                sys.exit(EXIT_ILL_POSED)
            solver = {
                "infmin": comp_inf_min,
                "lexmin": comp_lex_min,
                "fastlexmin": comp_fast_lex_min,
            }[solver_name]
            result = solver(graph, v0, seed=seed, tol=tol)
    except NotWellPosedError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_ILL_POSED)
    write_assignment(out, names, result.assignment)
    elapsed = time.perf_counter() - started
    click.echo(
        f"inf_norm={result.inf_norm:.12g} iterations={result.iterations} wall_time_s={elapsed:.3f}",
        err=True,
    )


seed_option = click.option(
    "--seed",
    metavar="INTEGER",
    default=None,
    callback=_resolve_seed,
    help="RNG seed, a non-negative integer (default: $LEXGRAPH_SEED or 0)",
)
tol_option = click.option(
    "--tol", type=float, default=1e-9, show_default=True, callback=_check_tol, help="relative comparison tolerance"
)
out_option = click.option("--out", type=click.Path(dir_okay=False), default=None, help="output TSV (default: stdout)")


class _Main(click.Group):
    """Usage errors (a bad option value, a missing option or command) exit 3
    with one ``error:`` line instead of click's usage block and exit 2, which
    the exit codes reserve for ill-posed instances."""

    def main(self, *args, **kwargs):
        try:
            return super().main(*args, standalone_mode=False, **kwargs)
        except click.ClickException as exc:
            click.echo(f"error: {exc.format_message()}", err=True)
            sys.exit(EXIT_PARSE)
        except click.Abort:
            click.echo("Aborted!", err=True)
            sys.exit(1)


@click.group(cls=_Main, no_args_is_help=False)
def main() -> None:
    """Lipschitz-extension solvers on weighted graphs."""


def _register_solver(name: str, doc: str) -> None:
    @main.command(name=name, help=doc)
    @click.argument("graph_file", type=click.Path(exists=False))
    @click.argument("labels_file", type=click.Path(exists=False))
    @seed_option
    @tol_option
    @out_option
    def _cmd(graph_file, labels_file, seed, tol, out, _name=name):
        _solve_command(_name, graph_file, labels_file, seed, tol, out)


_register_solver("infmin", "Minimize the maximum absolute edge gradient.")
_register_solver("lexmin", "Lexicographically minimal extension (reference solver).")
_register_solver("fastlexmin", "Lexicographically minimal extension (fast solver).")
_register_solver("dirlexmin", "Directed lex-minimal extension with ambiguity report.")


@main.command(name="l0")
@click.argument("graph_file", type=click.Path(exists=False))
@click.argument("labels_file", type=click.Path(exists=False))
@click.option("--k", type=click.IntRange(min=0), required=True, help="outlier budget")
@click.option("--mode", type=click.Choice(["exact", "approx"]), default="exact", show_default=True)
@seed_option
@tol_option
@out_option
def cmd_l0(graph_file, labels_file, k, mode, seed, tol, out):
    """Outlier-robust inf-minimization: drop up to k (exact) or 2k (approx) labels."""
    started = time.perf_counter()
    try:
        graph, names = read_edge_file(graph_file)
        v0 = read_label_file(labels_file, names)
    except ParseError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_PARSE)
    try:
        if mode == "exact":
            res = outlier_exact(graph, v0, k, tol=tol)
        else:
            res = outlier_approx(graph, v0, k, seed=seed, tol=tol)
    except NotWellPosedError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_ILL_POSED)
    write_assignment(out, names, res.result.assignment)
    sidecar = (out + ".l0meta.tsv") if out else None
    meta_lines = [f"alpha\t{res.alpha:.12g}"] + [f"removed\t{names[t]}" for t in sorted(res.removed)]
    if sidecar:
        Path(sidecar).write_text("\n".join(meta_lines) + "\n")
    else:
        for line in meta_lines:
            click.echo(line, err=True)
    elapsed = time.perf_counter() - started
    click.echo(
        f"inf_norm={res.result.inf_norm:.12g} iterations={res.result.iterations} wall_time_s={elapsed:.3f}",
        err=True,
    )


@main.command(name="verify")
@click.argument("graph_file", type=click.Path(exists=False))
@click.argument("labels_file", type=click.Path(exists=False))
@click.argument("assignment_file", type=click.Path(exists=False))
@click.option("--tol", type=float, default=1e-7, show_default=True, callback=_check_tol)
def cmd_verify(graph_file, labels_file, assignment_file, tol):
    """Check the max-min gradient averaging characterization of the lex-minimizer."""
    try:
        graph, names = read_edge_file(graph_file)
        v0 = read_label_file(labels_file, names)
        values = read_assignment_file(assignment_file, names)
    except ParseError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_PARSE)
    if graph.directed:
        click.echo("error: verify needs an undirected graph; got a '#directed' edge file", err=True)
        sys.exit(EXIT_ILL_POSED)
    mismatch = [
        names[t]
        for t in v0.terminals()
        if abs(values[t] - v0.values[t]) > tol * max(1.0, abs(values[t]), abs(v0.values[t]))
    ]
    report = verify_max_min(graph, v0, values, tol=tol)
    if mismatch:
        click.echo(f"assignment does not extend the labels at: {mismatch}", err=True)
    if report.violations:
        x, hi, lo = max(report.violations, key=lambda row: abs(row[1] + row[2]))
        click.echo(
            f"violations\t{len(report.violations)}\tworst\t{names[x]}\tmax_grad={hi:.12g}\tmin_grad={lo:.12g}",
            err=True,
        )
    for x, hi, lo in report.violations[:VERIFY_SHOWN]:
        click.echo(f"violation\t{names[x]}\tmax_grad={hi:.12g}\tmin_grad={lo:.12g}", err=True)
    if report.ok and not mismatch:
        click.echo("ok", err=True)
        sys.exit(0)
    sys.exit(1)


@main.command(name="synth")
@click.option("--kind", type=click.Choice(["gauss1d", "cube-knn", "random-regular", "random-digraph"]), required=True)
@click.option("--n", type=int, default=1000, show_default=True, help="vertex count (all kinds but gauss1d)")
@click.option("--labels", "n_labels", type=int, default=100, show_default=True)
@click.option("--dim", type=int, default=4, show_default=True)
@click.option("--knn", type=int, default=8, show_default=True)
@click.option("--degree", type=int, default=4, show_default=True)
@click.option("--per-cluster", type=int, default=100, show_default=True, help="gauss1d samples per cluster")
@click.option("--cluster-std", type=float, default=1.0, show_default=True)
@seed_option
@click.option("--out-prefix", required=True, help="writes <prefix>.edges.tsv / .labels.tsv / (.truth.tsv)")
def cmd_synth(kind, n, n_labels, dim, knn, degree, per_cluster, cluster_std, seed, out_prefix):
    """Generate a synthetic instance (deterministic for a fixed seed)."""
    try:
        if kind == "gauss1d":
            inst = synth.gauss1d(per_cluster=per_cluster, cluster_std=cluster_std, seed=seed)
        elif kind == "cube-knn":
            inst = synth.cube_knn(n, dim=dim, knn=knn, n_labels=n_labels, seed=seed)
        elif kind == "random-digraph":
            inst = synth.random_digraph(n, n_labels=n_labels, seed=seed)
        else:
            inst = synth.random_regular(n, degree=degree, n_labels=n_labels, seed=seed)
    except (ValueError, RuntimeError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_PARSE)
    g = inst.graph
    with open(out_prefix + ".edges.tsv", "w") as fh:
        fh.write("#directed\n" if g.directed else "#undirected\n")
        for u, v, w in zip(g.edge_u, g.edge_v, g.edge_len):
            fh.write(f"{u}\t{v}\t{w:.12g}\n")
    with open(out_prefix + ".labels.tsv", "w") as fh:
        for x in sorted(inst.labels):
            fh.write(f"{x}\t{inst.labels[x]:.12g}\n")
    if inst.truth is not None:
        with open(out_prefix + ".truth.tsv", "w") as fh:
            for x, val in enumerate(inst.truth):
                fh.write(f"{x}\t{val:.12g}\n")
    click.echo(f"wrote {out_prefix}.edges.tsv ({g.n} vertices, {g.m} edges)", err=True)


@main.command(name="bench")
@click.option("--kind", type=click.Choice(["random-regular", "cube-knn"]), default="random-regular", show_default=True)
@click.option(
    "--sizes", default="10000,30000,100000", show_default=True, callback=_parse_sizes, help="comma separated vertex counts"
)
@click.option("--labels", "n_labels", type=int, default=100, show_default=True)
@click.option("--degree", type=int, default=4, show_default=True)
@click.option("--repeats", type=int, default=1, show_default=True)
@seed_option
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="CSV output (default: stdout)")
def cmd_bench(kind, sizes, n_labels, degree, repeats, seed, out):
    """Wall-time benchmark of infmin and fastlexmin across instance sizes."""
    rows = [("algorithm", "n", "m", "seconds")]
    for n in sizes:
        try:
            if kind == "random-regular":
                inst = synth.random_regular(n, degree=degree, n_labels=n_labels, seed=seed)
            else:
                inst = synth.cube_knn(n, n_labels=n_labels, seed=seed)
        except (ValueError, RuntimeError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_PARSE)
        v0 = inst.assignment()
        for rep in range(repeats):
            for name, solver in (("infmin", comp_inf_min), ("fastlexmin", comp_fast_lex_min)):
                t0 = time.perf_counter()
                solver(inst.graph, v0, seed=seed + rep)
                rows.append((name, str(n), str(inst.graph.m), f"{time.perf_counter() - t0:.3f}"))
    fh = sys.stdout if out is None else open(out, "w", newline="")
    try:
        writer = csv.writer(fh)
        writer.writerows(rows)
    finally:
        if out is not None:
            fh.close()


if __name__ == "__main__":
    main()
