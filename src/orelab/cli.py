"""Command-line surface: generation, recognition, measurement, enumeration,
verification suites, and format export. All subcommands read and write
graph6, one graph per line."""

from __future__ import annotations

import csv
import json
import os
import random
import sys
from contextlib import contextmanager, suppress

import click

from .census import census_critical, corpus_from_graphs, graph_classes
from .errors import SizeCapError
from .graphs import bits_of, graph6_decode, graph6_encode, to_dot
from .orekit import DEFAULT_RECOGNITION_CAP, _random_tree, is_k_ore, tree_dumps
from .packing import compute_T
from .potential import rho, rho_ky
from .suites import DEFAULT_SEED, SUITE_IDS, check_suite_args, run_suite


def _read_graphs(handle):
    out = []
    for idx, line in enumerate(handle):
        line = line.strip()
        if not line:
            continue
        try:
            out.append(graph6_decode(line))
        except ValueError as err:
            raise click.ClickException(f"line {idx + 1}: {err}")
    return out


def _check_k(k, what):
    """Reject k < 4 before a command reads its input or prints a line."""
    if k < 4:
        raise click.ClickException(f"{what} requires k >= 4")


class _Main(click.Group):
    """Reports a library ValueError (bad input, a broken precondition, a size
    cap) as one error line instead of a traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as err:
            raise click.ClickException(str(err)) from err


@click.group(cls=_Main)
def main():
    """Workbench for composed color-critical graphs and their potentials."""


@main.command("gen-ore")
@click.option("--k", type=int, required=True, help="Clique order of the building blocks.")
@click.option("--steps", type=int, required=True, help="Number of compositions.")
@click.option("--seed", type=int, required=True, help="Random seed.")
@click.option("--count", type=int, default=1, show_default=True, help="How many graphs.")
@click.option("--out", type=click.File("w"), default="-", help="graph6 output file.")
@click.option("--tree-out", type=click.File("w"), default=None, help="Also write composition trees as JSON lines.")
def gen_ore(k, steps, seed, count, out, tree_out):
    """Generate random composed graphs and print them as graph6."""
    if count < 0:
        raise click.ClickException(f"count must be nonnegative, got {count}")
    rng = random.Random(seed)
    for _ in range(count):
        tree, g = _random_tree(k, steps, rng)
        out.write(graph6_encode(g) + "\n")
        if tree_out is not None:
            tree_out.write(tree_dumps(tree) + "\n")


@main.command("recognize-ore")
@click.option("--k", type=int, required=True)
@click.option("--in", "infile", type=click.File("r"), required=True, help="graph6 input file.")
@click.option("--cap", type=int, default=DEFAULT_RECOGNITION_CAP, show_default=True, help="Vertex cap for recognition.")
def recognize_ore(k, infile, cap):
    """Decide for each input graph whether it is a composed graph."""
    _check_k(k, "recognition")
    if cap < 0:
        raise click.ClickException(f"cap must be nonnegative, got {cap}")
    for g in _read_graphs(infile):
        try:
            witness = is_k_ore(g, k, cap=cap)
        except SizeCapError as err:
            click.echo(f"{graph6_encode(g)}\tskip-cap\t{err}")
            continue
        click.echo(f"{graph6_encode(g)}\t{'ore' if witness is not None else 'not-ore'}")


@main.command("potential")
@click.option("--k", type=int, required=True)
@click.option("--in", "infile", type=click.File("r"), required=True)
def potential_cmd(k, infile):
    """Print exact potential values for each input graph."""
    _check_k(k, "packing parameter")
    click.echo("graph6\tn\tm\tT\trho_int\trho")
    for g in _read_graphs(infile):
        t_val = compute_T(g, k).value
        click.echo(
            f"{graph6_encode(g)}\t{g.n}\t{g.edge_count()}\t{t_val}"
            f"\t{rho_ky(g, k)}\t{rho(g, k, t_val)}"
        )


@main.command("pack")
@click.option("--k", type=int, required=True)
@click.option("--in", "infile", type=click.File("r"), required=True)
def pack_cmd(k, infile):
    """Print the exact packing value and a witness for each input graph."""
    _check_k(k, "packing parameter")
    for g in _read_graphs(infile):
        witness = compute_T(g, k)
        parts = " ".join("+".join(map(str, bits_of(c))) for c in witness.cliques) or "-"
        click.echo(f"{graph6_encode(g)}\tT={witness.value}\t{parts}")


@main.command("enumerate")
@click.option("--n", type=int, required=True)
@click.option("--critical", is_flag=True, help="Only k-critical graphs, cumulatively up to n.")
@click.option("--k", type=int, default=4, show_default=True)
def enumerate_cmd(n, critical, k):
    """Print graph6 lines for all classes on n vertices, or the criticality
    census up to n."""
    graphs = census_critical(n, k).graphs if critical else graph_classes(n)
    for g in graphs:
        click.echo(graph6_encode(g))


@main.command("verify")
@click.option("--suite", "suite_id", required=True, help="Suite id or 'all'.")
@click.option("--k", type=int, default=4, show_default=True)
@click.option("--in", "infile", type=click.File("r"), default=None, help="graph6 corpus.")
@click.option("--census", "census_n", type=int, default=None, help="Use the criticality census up to n as corpus.")
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True)
@click.option("--cap", "caps", multiple=True, help="recognition=N: the vertex cap of ky-equality-ore's recognition.")
@click.option("--json", "json_path", type=click.Path(writable=True), default=None)
@click.option("--csv", "csv_path", type=click.Path(writable=True), default=None)
def verify_cmd(suite_id, k, infile, census_n, seed, caps, json_path, csv_path):
    """Run verification suites; exit 0 only if every run suite passes."""
    if infile is not None and census_n is not None:
        raise click.ClickException("--in and --census are mutually exclusive")
    cap_map = {}
    for item in caps:
        key, sep, value = item.partition("=")
        if not sep:
            raise click.ClickException(f"cap {item!r} is not key=value")
        try:
            cap_map[key] = int(value)
        except ValueError:
            raise click.ClickException(f"cap {key!r} needs an integer value, got {value!r}")
    ids = SUITE_IDS if suite_id == "all" else (suite_id,)
    check_suite_args(ids, cap_map)
    corpus = None
    if infile is not None:
        corpus = corpus_from_graphs(_read_graphs(infile))
    elif census_n is not None:
        corpus = census_critical(census_n, k)
    params = {"k": k, "seed": seed, "caps": cap_map}
    summary = []
    # the CSV is replaced last, so it wins when both options name one file
    with _staged(csv_path, "csv") as csv_fh, _staged(json_path, "json") as json_fh:
        csv_out = csv.writer(csv_fh, quoting=csv.QUOTE_ALL, lineterminator="\n") if csv_fh else None
        several = len(ids) > 1
        for i, sid in enumerate(ids):
            if json_fh and several:
                json_fh.write(",\n  " if i else "[\n  ")
            summary.append(_run_and_write(sid, corpus, params, json_fh, several, csv_out))
        if json_fh and several:
            json_fh.write("\n]")
    for line, _ in summary:
        click.echo(line)
    if not all(passed for _, passed in summary):
        sys.exit(1)


@contextmanager
def _staged(path, kind):
    """A text file beside ``path`` (None when there is no path) that
    replaces ``path`` when the block ends and is deleted if it raises, so
    a failed run leaves any earlier report as it was."""
    if not path:
        yield None
        return
    staging = f"{path}.{kind}.tmp"
    try:
        with open(staging, "w") as fh:
            yield fh
        os.replace(staging, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(staging)
        raise


def _run_and_write(sid, corpus, params, json_fh, indented, csv_out) -> tuple[str, bool]:
    """Run one suite, append its report to the open report files, and
    return its summary line and verdict; the result goes with the call.
    The JSON chunks are those of ``json.dump(..., indent=2)``, shifted one
    level in when the suite is an item of the report's list (a JSON string
    holds no raw newline)."""
    res = run_suite(sid, corpus, params)
    if json_fh:
        for chunk in json.JSONEncoder(indent=2).iterencode(res.to_json_dict()):
            json_fh.write(chunk.replace("\n", "\n  ") if indented else chunk)
    if csv_out:
        csv_out.writerows(res.csv_rows())
    c = res.counts()
    line = (
        f"{res.suite_id}: {'pass' if res.passed else 'FAIL'}"
        f" (pass={c['pass']} fail={c['fail']} skip-cap={c['skip-cap']})"
    )
    return line, res.passed


@main.command("export")
@click.option("--format", "fmt", type=click.Choice(["dot", "g6"]), required=True)
@click.option("--in", "infile", type=click.File("r"), required=True)
@click.option("--out", type=click.File("w"), default="-")
def export_cmd(fmt, infile, out):
    """Convert graph6 input to DOT or normalized graph6."""
    for g in _read_graphs(infile):
        if fmt == "dot":
            out.write(to_dot(g) + "\n")
        else:
            out.write(graph6_encode(g) + "\n")


if __name__ == "__main__":
    main()
