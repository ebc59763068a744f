"""Command-line front end emitting coefficients, brackets, sweeps and certificates.

Data goes to stdout (or ``--output``), diagnostics to stderr.  No timestamps,
'.' decimal separator, floats that round-trip exactly (17 significant digits
in CSV, ``repr`` in JSON).  Output is deterministic for a given numpy build
and CPU feature set: ``sweep``'s ``exp`` column and its ``--log-grid`` x values
come from numpy's ``exp`` and ``geomspace``, whose AVX-512 path can differ
from the others in the last bit.

Exit codes: 0 success, 1 any rejected certificate (``certify`` only) or a
failed write, 2 invalid arguments or domain violations, each with one line
on stderr.  Domain violations include inputs that need a coefficient a_k
below the smallest normal float, k >= 151: ``coeffs --n 151`` and above,
bracket pairs ``--n 76`` and above.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import sys
from contextlib import nullcontext
from itertools import islice, repeat

import numpy as np

from .certificate import sign_certificate
from .chebpoly import clenshaw_eval
from .errors import DomainError
from .expseries import (
    cheb_sandwich,
    exp_cheb_coefficients,
    partial_sum,
    sup_error_comparison,
    taylor_eval,
)

SWEEP_COLUMNS = ("x", "lower", "upper", "exp", "taylor_lower", "taylor_upper")
SWEEP_HEADER = ",".join(SWEEP_COLUMNS)
_SWEEP_BLOCK = 4096
# rows per write: under glibc's default mmap threshold of 128 KiB (sweeps
# with --with-taylor wrote at most 70 KB of CSV and 121 KB of JSON), so the
# strings reuse heap memory whatever large arrays the process freed before
_WRITE_ROWS = 512

# argparse reads '-4' and '-.5' after an option as its value, but '-1e4' and
# '-inf' as option strings; every valid x is below -1, so every float
# spelling must be a value
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chebbound",
        description="Two-sided polynomial brackets of exp(x) below -1 and their per-degree certificates.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("csv", "json"), default=None,
        help="output format (default: csv; certify defaults to json)",
    )
    common.add_argument("--output", default=None, help="write output to this file instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", parents=[common], help="expansion coefficients a_0..a_n")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("enclose", parents=[common], help="bracket exp(x) at one point x < -1")
    p.add_argument("--n", type=int, required=True, help="bracket index; degrees used are 2n-1 and 2n")
    p.add_argument("--x", type=float, required=True)

    p = sub.add_parser("sweep", parents=[common], help="bracket exp over a grid, as CSV rows")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x-min", type=float, required=True)
    p.add_argument("--x-max", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--with-taylor", action="store_true", help="add the odd/even Maclaurin baseline columns")
    p.add_argument("--log-grid", action="store_true", help="log-spaced grid (useful for wide ranges)")

    p = sub.add_parser("certify", parents=[common], help="sign-condition certificates per degree")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int)
    group.add_argument("--range", dest="range_", metavar="LO..HI", help="inclusive degree range, e.g. 1..64")

    p = sub.add_parser("compare", parents=[common], help="sup-norm error of Chebyshev vs Maclaurin on [-1,1]")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--points", type=int, required=True)

    return parser


def _column(name, col, as_json):
    """One column of a block: its field in the row template, and its cells (None: fixed text).

    CSV prints floats with 17 significant digits, None as an empty cell and
    bools as true/false; JSON prints each cell as ``json.dumps`` does.
    """
    kind, *others = set(map(type, col))
    if others:
        raise TypeError(f"column {name!r} mixes {sorted(k.__name__ for k in (kind, *others))}")
    if kind is type(None):
        return ("null" if as_json else ""), None
    if kind is float and not as_json:
        return "%.17g", col
    # repr is JSON's text for every float but nan and +-inf, which a finite sum rules out
    if kind is float and math.isfinite(sum(col)):
        return "%r", col
    return "%s", map(json.dumps, col) if as_json or kind is bool else col


def _write(out, text: str) -> None:
    raw = getattr(out, "buffer", None)
    if not isinstance(raw, io.RawIOBase):
        out.write(text)
        return
    # unbuffered (python -u): a signal can cut a pipe write short, and the
    # text layer would drop the rest
    data = memoryview(text.encode(out.encoding, out.errors))
    while data:
        data = data[raw.write(data):]


def _output(args):
    return nullcontext(sys.stdout) if args.output is None else open(args.output, "w", newline="")


def _emit_blocks(args, columns, blocks, default="csv") -> None:
    """Write a table given as ``blocks`` of columns, as CSV or JSON.

    Each block is a sequence of equal-length columns of Python values, one
    type per column.  JSON writes one object per row keyed by ``columns``, as
    ``json.dumps(..., indent=2)`` does.  Each block is formatted with one
    ``%`` template and written as it comes, ``_WRITE_ROWS`` rows at a time,
    to ``--output`` if set, else to stdout.
    """
    as_json = (args.format or default) == "json"
    if as_json:
        keys = [json.dumps(c).replace("%", "%%") for c in columns]
        start, sep, end, empty = "[\n", ",\n", "\n]\n", "[]\n"
    else:
        start = empty = ",".join(columns) + "\n"
        sep = end = "\n"
    with _output(args) as out:
        lead = None
        for block in blocks:
            fields, cells = zip(*map(_column, columns, block, repeat(as_json)))
            if as_json:
                template = "  {\n" + ",\n".join(f"    {k}: {f}" for k, f in zip(keys, fields)) + "\n  }"
            else:
                template = ",".join(fields)
            cells = [c for c in cells if c is not None]
            lines = map(template.__mod__, zip(*cells) if cells else repeat((), len(block[0])))
            for piece in iter(lambda: list(islice(lines, _WRITE_ROWS)), []):
                _write(out, (lead or start) + sep.join(piece))
                lead = sep
        _write(out, end if lead else empty)


def _emit_table(args, columns, rows, payload=None, default="csv") -> None:
    """Write ``rows`` (tuples of Python values, one type per column) as CSV or JSON.

    JSON writes ``payload`` if one is given, else what :func:`_emit_blocks`
    writes for the rows taken ``_SWEEP_BLOCK`` at a time.
    """
    if payload is not None and (args.format or default) == "json":
        with _output(args) as out:
            _write(out, json.dumps(payload, indent=2) + "\n")
        return
    rows = iter(rows)
    # the next rows transposed into columns, until an empty block
    blocks = iter(lambda: list(zip(*islice(rows, _SWEEP_BLOCK))), [])
    _emit_blocks(args, columns, blocks, default)


def _cmd_coeffs(args) -> int:
    if args.n < 0:
        raise DomainError("--n must be >= 0")
    _emit_table(args, ("index", "a"), enumerate(exp_cheb_coefficients(args.n).tolist()))
    return 0


def _cmd_enclose(args) -> int:
    if args.n < 1:
        raise DomainError("--n must be >= 1")
    if not args.x < -1.0:
        raise DomainError("x must lie in (-inf, -1): the bracket is certified only below -1")
    enc = cheb_sandwich(args.n, args.x)
    columns = ("x", "lower", "upper", "lower_degree", "upper_degree")
    row = (enc.x, enc.lower, enc.upper, enc.lower_degree, enc.upper_degree)
    _emit_table(args, columns, [row], payload=dict(zip(columns, row)))
    return 0


def _sweep_grid(x_min: float, x_max: float, points: int, log_grid: bool) -> np.ndarray:
    if log_grid:
        return -np.geomspace(-x_min, -x_max, points)
    return np.linspace(x_min, x_max, points)


def _cmd_sweep(args) -> int:
    if args.n < 1:
        raise DomainError("--n must be >= 1")
    if args.points < 2:
        raise DomainError("--points must be >= 2")
    if not args.x_max <= -1.0 - 1e-6:
        raise DomainError("--x-max must be <= -1-1e-6: the bracket is certified only below -1")
    if not args.x_min < args.x_max:
        raise DomainError("--x-min must be < --x-max")
    grid = _sweep_grid(args.x_min, args.x_max, args.points, args.log_grid)
    cols = [
        grid,
        clenshaw_eval(partial_sum(2 * args.n - 1), grid),
        clenshaw_eval(partial_sum(2 * args.n), grid),
        np.exp(grid),
    ]
    if args.with_taylor:
        cols += [taylor_eval(2 * args.n - 1, grid), taylor_eval(2 * args.n, grid)]

    def blocks():
        # Python floats one block at a time: the full table is never built
        for i in range(0, grid.size, _SWEEP_BLOCK):
            block = [c[i:i + _SWEEP_BLOCK].tolist() for c in cols]
            yield block if args.with_taylor else block + [[None] * len(block[0])] * 2

    _emit_blocks(args, SWEEP_COLUMNS, blocks())
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    lo_s, sep, hi_s = text.partition("..")
    if not sep:
        raise DomainError("range must look like LO..HI, e.g. 1..64")
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError as exc:
        raise DomainError("range endpoints must be integers") from exc
    if lo < 1 or hi < lo:
        raise DomainError("range needs 1 <= LO <= HI")
    return lo, hi


def _cmd_certify(args) -> int:
    if args.range_ is not None:
        lo, hi = _parse_range(args.range_)
    else:
        if args.n is None or args.n < 1:
            raise DomainError("--n must be >= 1")
        lo = hi = args.n
    payload = [sign_certificate(k).to_json_dict() for k in range(lo, hi + 1)]
    columns = ("n", "ratio_num", "ratio_den", "unit_quadratic", "shifted_quadratic",
               "leading_positive", "verdict")
    rows = [(p["n"], *p["ratio_bound"].values(), *p["conditions"].values(), p["verdict"])
            for p in payload]
    _emit_table(args, columns, rows, payload=payload, default="json")
    return 0 if all(p["verdict"] == "accepted" for p in payload) else 1


def _cmd_compare(args) -> int:
    if args.n < 1:
        raise DomainError("--n must be >= 1")
    if args.points < 100:
        raise DomainError("--points must be >= 100")
    rows = [(d, *sup_error_comparison(d, args.points)) for d in range(1, args.n + 1)]
    _emit_table(args, ("degree", "cheb_sup_err", "taylor_sup_err"), rows)
    return 0


_DISPATCH = {
    "coeffs": _cmd_coeffs,
    "enclose": _cmd_enclose,
    "sweep": _cmd_sweep,
    "certify": _cmd_certify,
    "compare": _cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # overflow far from -1 already shows as inf/nan cells; numpy's warnings
        # would put its source lines on stderr, which carries chebbound's own
        with np.errstate(over="ignore", invalid="ignore"):
            return _DISPATCH[args.command](args)
    except DomainError as exc:
        print(f"chebbound {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        if isinstance(exc, BrokenPipeError) and args.output is None:
            # the reader of stdout left (`| head`): as the signal module's docs
            # advise, let the exit-time flush go to devnull, and end quietly
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
        print(f"chebbound {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
