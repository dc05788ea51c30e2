"""Command line surface: solve, verify, generate, benchmark.

File formats are TSV throughout. Edge lists start with a "#directed" or
"#undirected" header line followed by "u<TAB>v<TAB>len" rows; string vertex
ids are mapped to dense integers in first-appearance order. Label files hold
"vertex-id<TAB>value" rows. Exit codes: 0 ok, 1 a solver that fails on an
accepted instance, 2 instance not well-posed (or wrong graph kind for the
command), 3 bad input (a file that does not parse, or a usage error such as
a bad option value), always with one "error:" line on stderr. ``verify``
also exits 1 when it rejects the assignment, with its own report.
"""

from __future__ import annotations

import csv
import math
import os
import sys
import time
from itertools import compress, count
from pathlib import Path
from typing import Iterable, NoReturn, Sequence, TextIO

import click
import numpy as np

from .core import (
    Graph,
    GraphFormatError,
    LexgraphError,
    NotWellPosedError,
    PartialAssignment,
    _first_20,
    definitely_greater,
    require_well_posed,
)
from .l0reg import outlier_approx, outlier_exact
from .solvers import (
    DirectedLexResult,
    SolverResult,
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


def _fail(message: object, code: int) -> NoReturn:
    """The one ``error:`` line on stderr, then exit with ``code``."""
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _resolve_seed(ctx: click.Context, param: click.Parameter, value: str | None) -> int:
    """--seed if given, else $LEXGRAPH_SEED, else 0; anything but a
    non-negative integer exits 3."""
    source, raw = "--seed", value
    if value is None:
        source, raw = "LEXGRAPH_SEED", os.environ.get("LEXGRAPH_SEED", "0")
    try:
        seed = int(raw)
    except ValueError:
        seed = -1
    if seed < 0:
        _fail(f"{source} must be a non-negative integer, got {raw!r}", EXIT_PARSE)
    return seed


def _check_finite_non_negative(ctx: click.Context, param: click.Parameter, value: float) -> float:
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


def _read_lines(path: str) -> list[str]:
    try:
        return Path(path).read_text().splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _is_row(line: str) -> bool:
    """A row is a line that is neither blank nor a '#' comment."""
    return bool(line.strip()) and not line.lstrip().startswith("#")


def _tsv_rows(lines: list[str], first: int = 1):
    """(line number, tab-separated fields) of every row; ``first`` is the
    number of ``lines[0]``."""
    for ln, line in enumerate(lines, start=first):
        if _is_row(line):
            yield ln, line.split("\t")


def read_edge_file(path: str) -> tuple[Graph, list[str]]:
    """Graph plus the vertex-name table (dense id -> original string id).

    Rows are split, named and parsed in bulk; only when a bulk check fails
    is the file scanned row by row, for the line of the first bad row. Each
    step drops what the next does not need, which keeps peak memory down."""
    lines = _read_lines(path)
    if not lines:
        raise ParseError(f"{path}: empty edge file")
    header = lines[0].strip()
    if header == "#directed":
        directed = True
    elif header == "#undirected":
        directed = False
    else:
        raise ParseError(f"{path}: first line must be '#directed' or '#undirected'")
    # Joined by "\t\n\t", the rows split into u, v, len, "\n", u, v, len, ...
    # No row holds a "\n", so every row has three fields iff each of the
    # n_rows - 1 separators is a fourth field.
    text = "\t\n\t".join([line for line in lines[1:] if _is_row(line)])
    del lines
    if not text:
        return Graph(0, [], directed=directed), []
    n_rows = text.count("\n") + 1
    fields = text.split("\t")
    del text
    if len(fields) != 4 * n_rows - 1 or fields[3::4].count("\n") != n_rows - 1:
        raise _first_bad_row(path)
    try:
        lengths = np.array(fields[2::4], dtype=np.float64)
    except ValueError:
        raise _first_bad_row(path) from None
    del fields[2::4]  # u, v, "\n", u, v, "\n", ...
    del fields[2::3]  # u, v, u, v, ...
    names, ids = _number_names(fields)
    try:
        graph = Graph(len(names), np.column_stack((ids.reshape(-1, 2), lengths)), directed=directed)
    except GraphFormatError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return graph, names


def _number_names(ends: list[str]) -> tuple[list[str], np.ndarray]:
    """(distinct names in first-appearance order, dense id of each entry).

    Empties ``ends``. The names come back as new strings, made once the
    others are freed, so a few survivors do not keep the freed strings'
    memory pools half empty under the objects the solvers allocate next."""
    seen: dict[str, int] = {}
    # the position where the name of each entry first appears
    first = np.fromiter(map(seen.setdefault, ends, count()), np.int64, len(ends))
    new = first == np.arange(len(ends))
    text = "\t".join(compress(ends, new.tolist()))
    ends.clear()
    seen.clear()
    return text.split("\t"), (np.cumsum(new) - 1)[first]


def _first_bad_row(path: str) -> ParseError:
    """The error of the first edge row without three fields or with a length
    that does not parse, from a second read of the file."""
    for ln, parts in _tsv_rows(_read_lines(path)[1:], first=2):
        if len(parts) != 3:
            return ParseError(f"{path}:{ln}: expected 'u<TAB>v<TAB>len'")
        try:
            float(parts[2])
        except ValueError:
            return ParseError(f"{path}:{ln}: bad length {parts[2]!r}")
    return ParseError(f"{path}: changed while it was read")


def _read_values(path: str, names: list[str], what: str) -> np.ndarray:
    """Per-vertex values of a "vertex-id<TAB>value" file, NaN where it has
    no row; ``what`` names the values in its errors."""
    ids = dict(zip(names, range(len(names))))
    values = np.full(len(names), np.nan)
    for ln, parts in _tsv_rows(_read_lines(path)):
        if len(parts) != 2:
            raise ParseError(f"{path}:{ln}: expected 'vertex-id<TAB>value'")
        name, raw = parts
        if name not in ids:
            raise ParseError(f"{path}:{ln}: {what} on unknown vertex {name!r}")
        if not np.isnan(values[ids[name]]):
            raise ParseError(f"{path}:{ln}: duplicate {what} for vertex {name!r}")
        try:
            value = float(raw)
        except ValueError as exc:
            raise ParseError(f"{path}:{ln}: bad value {raw!r}") from exc
        if not math.isfinite(value):
            raise ParseError(f"{path}:{ln}: {what} value must be finite, got {raw!r}")
        values[ids[name]] = value
    return values


def read_label_file(path: str, names: list[str]) -> PartialAssignment:
    return PartialAssignment(_read_values(path, names, "label"))


def read_assignment_file(path: str, names: list[str]) -> np.ndarray:
    values = _read_values(path, names, "assignment")
    missing = np.flatnonzero(np.isnan(values))
    if missing.size:
        raise ParseError(f"{path}: assignment misses vertices (e.g. {[names[i] for i in missing[:5]]})")
    return values


def _open_out(path: str, **kw) -> TextIO:
    """``path`` opened for writing; a path that cannot be written exits 3."""
    try:
        return open(path, "w", **kw)
    except OSError as exc:
        _fail(f"cannot write {path}: {exc.strerror or exc}", EXIT_PARSE)


def write_assignment(path: str | None, names: Iterable[object], values: Sequence[float] | np.ndarray) -> None:
    rows = map("{}\t{:.12g}\n".format, names, np.asarray(values, dtype=np.float64).tolist())
    out = sys.stdout if path is None else _open_out(path)
    try:
        out.writelines(rows)
    finally:
        if path is not None:
            out.close()


def _load(graph_file: str, labels_file: str, assignment_file: str | None = None):
    """(graph, vertex names, labels, assignment or None) from the input files;
    a file that does not parse exits 3."""
    try:
        graph, names = read_edge_file(graph_file)
        v0 = read_label_file(labels_file, names)
        values = None if assignment_file is None else read_assignment_file(assignment_file, names)
    except ParseError as exc:
        _fail(exc, EXIT_PARSE)
    return graph, names, v0, values


def _run_solver(graph_file: str, labels_file: str, out: str | None, solve, report=None) -> None:
    """Load the inputs and run ``solve(graph, v0)``; an instance that is not
    well-posed exits 2, one whose labels and lengths a solver rejects exits
    3, and any other solver error exits 1. ``solve`` returns a SolverResult
    or a record that holds one as ``result``. Write the assignment, then
    ``report(record, names)`` if given, then the ``inf_norm=...
    iterations=... wall_time_s=...`` line on stderr."""
    started = time.perf_counter()
    graph, names, v0, _ = _load(graph_file, labels_file)
    try:
        record = solve(graph, v0)
    except NotWellPosedError as exc:
        _fail(exc, EXIT_ILL_POSED)
    except GraphFormatError as exc:
        _fail(exc, EXIT_PARSE)
    except LexgraphError as exc:
        _fail(exc, 1)
    result = record if isinstance(record, SolverResult) else record.result
    write_assignment(out, names, result.assignment)
    if report is not None:
        report(record, names)
    elapsed = time.perf_counter() - started
    click.echo(
        f"inf_norm={result.inf_norm:.12g} iterations={result.iterations} wall_time_s={elapsed:.3f}",
        err=True,
    )


def _report_directed(directed: DirectedLexResult, names: list[str]) -> None:
    for amb in directed.ambiguous:
        click.echo(
            f"ambiguous\t{names[amb.vertex]}\t[{amb.lower:.12g}, {amb.upper:.12g}]\t-> {amb.assigned:.12g}",
            err=True,
        )
    for eid, grad in directed.violations:
        click.echo(f"warning: residual directed gradient {grad:.3e} on edge {eid}", err=True)


def _solve_command(solver_name: str, graph_file: str, labels_file: str, seed: int, out: str | None):
    solver = {
        "infmin": comp_inf_min,
        "lexmin": comp_lex_min,
        "fastlexmin": comp_fast_lex_min,
        "dirlexmin": directed_lex_min,
    }[solver_name]

    def solve(graph: Graph, v0: PartialAssignment):
        if solver_name == "dirlexmin" and not graph.directed:
            _fail("dirlexmin needs a '#directed' edge file", EXIT_ILL_POSED)
        if graph.directed and solver_name not in ("infmin", "dirlexmin"):
            _fail(f"{solver_name} needs an undirected graph; use dirlexmin", EXIT_ILL_POSED)
        return solver(graph, v0, seed=seed)

    _run_solver(graph_file, labels_file, out, solve, _report_directed if solver_name == "dirlexmin" else None)


seed_option = click.option(
    "--seed",
    metavar="INTEGER",
    default=None,
    callback=_resolve_seed,
    help="RNG seed, a non-negative integer (default: $LEXGRAPH_SEED or 0)",
)
POSITIVE = click.IntRange(min=1)
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
    @out_option
    def _cmd(graph_file, labels_file, seed, out, _name=name):
        _solve_command(_name, graph_file, labels_file, seed, out)


_register_solver("infmin", "Minimize the maximum absolute edge gradient.")
_register_solver("lexmin", "Lexicographically minimal extension (reference solver).")
_register_solver("fastlexmin", "Lexicographically minimal extension (fast solver).")
_register_solver("dirlexmin", "Directed lex-minimal extension with ambiguity report.")


@main.command(name="l0")
@click.argument("graph_file", type=click.Path(exists=False))
@click.argument("labels_file", type=click.Path(exists=False))
@click.option("--k", type=click.IntRange(min=0), required=True, help="outlier budget")
@click.option("--mode", type=click.Choice(["exact", "approx"]), default="exact", show_default=True)
@out_option
def cmd_l0(graph_file, labels_file, k, mode, out):
    """Outlier-robust inf-minimization: drop up to k (exact) or 2k (approx) labels."""
    solver = outlier_exact if mode == "exact" else outlier_approx

    def report(res, names: list[str]) -> None:
        meta_lines = [f"alpha\t{res.alpha:.12g}"] + [f"removed\t{names[t]}" for t in sorted(res.removed)]
        if out:
            with _open_out(out + ".l0meta.tsv") as fh:
                fh.write("\n".join(meta_lines) + "\n")
        else:
            for line in meta_lines:
                click.echo(line, err=True)

    _run_solver(graph_file, labels_file, out, lambda graph, v0: solver(graph, v0, k), report)


@main.command(name="verify")
@click.argument("graph_file", type=click.Path(exists=False))
@click.argument("labels_file", type=click.Path(exists=False))
@click.argument("assignment_file", type=click.Path(exists=False))
@click.option(
    "--tol",
    type=float,
    default=1e-7,
    show_default=True,
    callback=_check_finite_non_negative,
    help="comparison tolerance: relative for magnitudes above 1, absolute below 1",
)
def cmd_verify(graph_file, labels_file, assignment_file, tol):
    """Check the max-min gradient averaging characterization of the lex-minimizer."""
    graph, names, v0, values = _load(graph_file, labels_file, assignment_file)
    if graph.directed:
        _fail("verify needs an undirected graph; got a '#directed' edge file", EXIT_ILL_POSED)
    terminals = v0.terminals()
    got, want = values[terminals], v0.values[terminals]
    changed = definitely_greater(got, want, tol) | definitely_greater(want, got, tol)
    mismatch = [names[t] for t in terminals[changed].tolist()]
    report = verify_max_min(graph, v0, values, tol=tol)
    if mismatch:
        click.echo(f"assignment does not extend the labels at: {_first_20(mismatch, str)}", err=True)
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
@click.option("--n", type=POSITIVE, default=1000, show_default=True, help="vertex count (all kinds but gauss1d)")
@click.option("--labels", "n_labels", type=POSITIVE, default=100, show_default=True)
@click.option("--dim", type=POSITIVE, default=4, show_default=True)
@click.option("--knn", type=POSITIVE, default=8, show_default=True)
@click.option("--degree", type=POSITIVE, default=4, show_default=True)
@click.option("--per-cluster", type=POSITIVE, default=100, show_default=True, help="gauss1d samples per cluster")
@click.option("--cluster-std", type=float, default=1.0, show_default=True, callback=_check_finite_non_negative)
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
        _fail(exc, EXIT_PARSE)
    g = inst.graph
    with _open_out(out_prefix + ".edges.tsv") as fh:
        fh.write("#directed\n" if g.directed else "#undirected\n")
        fh.writelines(map("{}\t{}\t{:.12g}\n".format, g.edge_u.tolist(), g.edge_v.tolist(), g.edge_len.tolist()))
    labeled = sorted(inst.labels)
    write_assignment(out_prefix + ".labels.tsv", labeled, [inst.labels[x] for x in labeled])
    if inst.truth is not None:
        write_assignment(out_prefix + ".truth.tsv", range(len(inst.truth)), inst.truth)
    click.echo(f"wrote {out_prefix}.edges.tsv ({g.n} vertices, {g.m} edges)", err=True)


@main.command(name="bench")
@click.option("--kind", type=click.Choice(["random-regular", "cube-knn"]), default="random-regular", show_default=True)
@click.option(
    "--sizes", default="10000,30000,100000", show_default=True, callback=_parse_sizes, help="comma separated vertex counts"
)
@click.option("--labels", "n_labels", type=POSITIVE, default=100, show_default=True)
@click.option("--degree", type=POSITIVE, default=4, show_default=True)
@click.option("--repeats", type=POSITIVE, default=1, show_default=True)
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
            v0 = inst.assignment()
            require_well_posed(inst.graph, v0)
        except NotWellPosedError as exc:
            _fail(exc, EXIT_ILL_POSED)
        except (ValueError, RuntimeError) as exc:
            _fail(exc, EXIT_PARSE)
        for rep in range(repeats):
            for name, solver in (("infmin", comp_inf_min), ("fastlexmin", comp_fast_lex_min)):
                t0 = time.perf_counter()
                try:
                    solver(inst.graph, v0, seed=seed + rep)
                except LexgraphError as exc:
                    _fail(exc, 1)
                rows.append((name, str(n), str(inst.graph.m), f"{time.perf_counter() - t0:.3f}"))
    fh = sys.stdout if out is None else _open_out(out, newline="")
    try:
        writer = csv.writer(fh)
        writer.writerows(rows)
    finally:
        if out is not None:
            fh.close()


if __name__ == "__main__":
    main()
