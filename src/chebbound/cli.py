"""Command-line front end emitting coefficients, brackets, sweeps and certificates.

Data goes to stdout (or ``--output``), diagnostics to stderr.  No timestamps,
'.' decimal separator, floats that round-trip exactly (17 significant digits
in CSV, ``repr`` in JSON).  Output is deterministic for a given numpy build
and CPU feature set: ``sweep``'s ``exp`` column and its ``--log-grid`` x values
come from numpy's ``exp``, and ``log10`` and ``power``, whose AVX-512 paths
can differ from the others in the last bit.

A table is written in blocks of ``_BLOCK_ROWS`` rows.  Where the process may
run on two or more CPUs (its affinity mask and its cgroup CPU quota both
allow two), a table of two or more blocks is formatted by this process and
one forked child, the child taking the odd blocks; this process writes every
block in table order, so the bytes do not depend on the number of CPUs.
``sweep`` streams its blocks from its grid and columns, computed
``_CHUNK_ROWS`` rows at a time in each process up to the last block that the
process formats, so its memory does not grow with ``--points``.

Exit codes: 0 success, 1 any rejected certificate (``certify`` only), a
failed write, a failed row formatter or a failed allocation, 2 invalid
arguments or domain violations, each with one line on stderr.  Domain
violations include inputs that need a coefficient a_k below the smallest
normal float, k >= 151: ``coeffs --n 151`` and above, bracket pairs ``--n
76`` and above.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import sys
import warnings
from contextlib import closing, nullcontext
from functools import partial
from itertools import islice, repeat

import numpy as np

from .certificate import sign_certificate
from .chebpoly import clenshaw_eval
from .errors import DomainError
from .expseries import (
    cheb_sandwich,
    partial_sum,
    sup_error_comparison,
    taylor_eval,
)

SWEEP_COLUMNS = ("x", "lower", "upper", "exp", "taylor_lower", "taylor_upper")
SWEEP_HEADER = ",".join(SWEEP_COLUMNS)
# rows per block: each block's text stays under glibc's default mmap
# threshold of 128 KiB (sweeps with --with-taylor wrote at most 70 KB of CSV
# and 121 KB of JSON), so the strings reuse heap memory whatever large arrays
# the process freed before
_BLOCK_ROWS = 512
# rows per chunk of a sweep: its grid and columns are computed a chunk at a
# time, so a sweep's memory does not grow with --points; a whole number of
# blocks, so that no block spans two chunks
_CHUNK_ROWS = 16 * _BLOCK_ROWS
# the DeprecationWarning that os.fork gives from Python 3.12 where the
# process has more than one thread
_FORK_WITH_THREADS = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) may lead to deadlocks"

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


def _write_all(write, data) -> None:
    # a write to a pipe that a signal cuts short returns a short count
    data = memoryview(data)
    while data:
        data = data[write(data):]


def _write(out, text: str) -> None:
    raw = getattr(out, "buffer", None)
    if not isinstance(raw, io.RawIOBase):
        out.write(text)
        return
    # unbuffered (python -u): the text layer would drop the rest of a short write
    _write_all(raw.write, text.encode(out.encoding, out.errors))


def _output(args):
    return nullcontext(sys.stdout) if args.output is None else open(args.output, "w", newline="")


def _format_block(columns, keys, block, as_json, sep) -> str:
    """One block's rows as text, each row through one ``%`` template, joined by ``sep``."""
    block = [c.tolist() if isinstance(c, np.ndarray) else c for c in block]
    fields, cells = zip(*map(_column, columns, block, repeat(as_json)))
    if as_json:
        template = "  {\n" + ",\n".join(f"    {k}: {f}" for k, f in zip(keys, fields)) + "\n  }"
    else:
        template = ",".join(fields)
    cells = [c for c in cells if c is not None]
    rows = zip(*cells) if cells else repeat((), len(block[0]))
    return sep.join(map(template.__mod__, rows))


def _fork() -> int:
    with warnings.catch_warnings():
        # numpy's BLAS threads make this process multi-threaded, but a
        # formatter child runs only the table's blocks, which may run numpy's
        # ufuncs but call no BLAS (see _emit_blocks), % formatting and
        # os.write, and leaves through os._exit
        warnings.filterwarnings("ignore", _FORK_WITH_THREADS, DeprecationWarning)
        return os.fork()


def _receive(pipe, pid) -> str:
    """The next block's text that child ``pid`` sent down ``pipe``, whose ``read(n)`` ends short only at EOF."""
    size = int.from_bytes(head := pipe.read(8), "little")
    data = pipe.read(size)
    if len(head) + len(data) < 8 + size:
        raise ChildProcessError(f"row formatter {pid} stopped before the end of the table")
    return data.decode("utf-8", "surrogatepass")


def _cgroup_dir(mounts, v2, path):
    """The directory of the group at ``path`` in the v2 hierarchy, or else the v1 one with the cpu controller.

    ``mounts`` are the lines of a mountinfo file.  A mount shows its
    hierarchy from the mount's root on (in a container without a cgroup
    namespace, the group that the container was started in), so ``path``
    is taken relative to that root; a group outside it is not shown there.
    """
    for line in mounts:
        fields = line.split()
        fstype, *_, options = fields[fields.index("-") + 1:]
        if fstype != ("cgroup2" if v2 else "cgroup") or not v2 and "cpu" not in options.split(","):
            continue
        # mountinfo writes a space, tab, newline or backslash as \ooo
        root, point = (re.sub(r"\\([0-7]{3})", lambda m: chr(int(m[1], 8)), f) for f in fields[3:5])
        rel = os.path.relpath(path, root)
        if rel.split(os.sep)[0] != os.pardir:
            return os.path.normpath(os.path.join(point, rel))
    raise FileNotFoundError(f"no mount shows cgroup {path}")


def _cpu_quota(cgroup="/proc/self/cgroup", mountinfo="/proc/self/mountinfo"):
    """The CPUs that this process's cgroup quota allows, or None: no quota, or none that can be read.

    The group is the one that ``cgroup`` names, found where ``mountinfo``
    mounts its hierarchy.  cgroup v2 keeps the quota in its ``cpu.max``
    ("max" or "QUOTA PERIOD"), v1 in ``cpu.cfs_quota_us`` (-1 for none)
    over ``cpu.cfs_period_us``.
    """
    try:
        with open(cgroup) as f, open(mountinfo) as g:
            lines, mounts = f.read().splitlines(), g.read().splitlines()
    except OSError:
        return None
    for line in lines:
        try:
            _, controllers, path = line.split(":", 2)
            if controllers and "cpu" not in controllers.split(","):
                continue
            group = _cgroup_dir(mounts, not controllers, path)
            if not controllers:
                with open(os.path.join(group, "cpu.max")) as f:
                    quota, period = f.read().split()
            else:
                with open(os.path.join(group, "cpu.cfs_quota_us")) as f, \
                        open(os.path.join(group, "cpu.cfs_period_us")) as g:
                    quota, period = f.read().strip(), g.read().strip()
            return None if quota in ("max", "-1") else int(quota) / int(period)
        except (OSError, ValueError, ZeroDivisionError):
            continue
    return None


def _two_cpus() -> bool:
    """Whether both this process's affinity mask and its cgroup quota let it run on two CPUs at once."""
    # sched_getaffinity exists on Linux only
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        return False
    quota = _cpu_quota()
    return quota is None or quota >= 2


def _formatted(count, blocks, text):
    """``text(block)`` for each of the ``count`` blocks, in table order, as :func:`_emit_blocks` describes."""
    if count < 2 or not _two_cpus():
        yield from map(text, blocks)
        return
    parent, pid = os.getpid(), None
    read_fd, write_fd = os.pipe()
    pipe = open(read_fd, "rb")
    try:
        try:
            pid = _fork()
            if not pid:
                # each odd block as its length in 8 bytes and then its UTF-8
                # text, with surrogatepass so that every str survives; the
                # walk ends at the last odd block
                pipe.close()
                write = partial(os.write, write_fd)
                for block in islice(blocks, 1, count - count % 2, 2):
                    data = text(block).encode("utf-8", "surrogatepass")
                    _write_all(write, len(data).to_bytes(8, "little") + data)
                os._exit(0)
        finally:
            # the child, whatever it raised from the fork on, leaves here: it
            # never flushes this process's buffers or runs its cleanup
            if os.getpid() != parent:
                os._exit(1)
            os.close(write_fd)
        for i, block in enumerate(blocks):
            yield _receive(pipe, pid) if i % 2 else text(block)
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        reaped, pid = pid, None
        if code:
            raise ChildProcessError(f"row formatter {reaped} exited with status {code}")
    finally:
        # after an early end (a failed write, a reader gone, an interrupt)
        # the child, if still running, fails its next write to the closed
        # pipe (EPIPE, or SIGPIPE where that is not ignored) and exits
        pipe.close()
        if pid:
            os.waitpid(pid, 0)


def _emit_blocks(args, columns, count, blocks) -> None:
    """Write a table of the ``count`` blocks that the iterable ``blocks`` gives in order, as CSV or JSON.

    Each block is an iterable of equal-length columns, each a float64
    ndarray or a sequence of Python values of one type, of ``_BLOCK_ROWS`` rows
    but the last.  JSON writes one object per row keyed by ``columns``, as
    ``json.dumps(..., indent=2)`` does.  Each block is formatted with one
    ``%`` template, its arrays turned into Python floats only there, and
    written as it comes to ``--output`` if set, else to stdout.

    Where this process may run on two or more CPUs and the table has two or
    more blocks, one child is forked before the first block: it formats the
    odd blocks and sends each down a pipe, while this process formats the
    even ones.  This process alone writes, each block in table order, so the
    bytes are those of one process formatting every row.

    Each process walks ``blocks`` once, the child up to its last odd block,
    so the iterable must give the same values in both and have no side
    effects (read no input, write nothing, change no state that outlives
    it).  It may run numpy's ufuncs, but must call no BLAS: a child has none
    of numpy's BLAS threads, and a lock that one of them held at the fork
    stays held there.
    """
    as_json = args.format == "json"
    if as_json:
        start, sep, end, empty = "[\n", ",\n", "\n]\n", "[]\n"
    else:
        start = empty = ",".join(columns) + "\n"
        sep = end = "\n"
    keys = [json.dumps(c).replace("%", "%%") for c in columns]
    texts = _formatted(count, blocks, lambda block: _format_block(columns, keys, block, as_json, sep))
    with _output(args) as out, closing(texts):
        lead = None
        for text in texts:
            _write(out, (lead or start) + text)
            lead = sep
        _write(out, end if lead else empty)


def _emit_table(args, columns, rows, payload=None) -> None:
    """Write ``rows`` (tuples of Python values, one type per column) as CSV or JSON.

    JSON writes ``payload`` if one is given, else what :func:`_emit_blocks`
    writes for the rows taken ``_BLOCK_ROWS`` at a time.
    """
    if payload is not None and args.format == "json":
        with _output(args) as out:
            _write(out, json.dumps(payload, indent=2) + "\n")
        return
    rows = list(rows)
    blocks = (zip(*rows[i:i + _BLOCK_ROWS]) for i in range(0, len(rows), _BLOCK_ROWS))
    _emit_blocks(args, columns, -(-len(rows) // _BLOCK_ROWS), blocks)


def _cmd_coeffs(args) -> int:
    if args.n < 0:
        raise DomainError("--n must be >= 0")
    _emit_table(args, ("index", "a"), enumerate(partial_sum(args.n).values))
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


def _sweep_grid(x_min: float, x_max: float, points: int, log_grid: bool, start: int, stop: int) -> np.ndarray:
    """Rows ``start..stop-1`` of the sweep's grid, with the bits of ``np.linspace`` over all ``points``.

    ``log_grid`` gives those of ``-np.geomspace(-x_min, -x_max, points)``: 10 to
    the power of a linear grid between numpy's ``log10`` of the two ends,
    which are then set exactly.
    """
    if log_grid:
        lo, hi = np.log10(-x_min), np.log10(-x_max)
    else:
        lo, hi = x_min, x_max
    rows = np.arange(start, stop, dtype=np.float64)
    rows *= (hi - lo) / (points - 1)
    rows += lo
    if log_grid:
        rows = -np.power(10.0, rows)
    if start == 0:
        rows[0] = x_min
    if stop == points:
        rows[-1] = x_max
    return rows


def _cmd_sweep(args) -> int:
    if args.n < 1:
        raise DomainError("--n must be >= 1")
    if args.points < 2:
        raise DomainError("--points must be >= 2")
    if not args.x_max <= -1.0 - 1e-6:
        raise DomainError("--x-max must be <= -1-1e-6: the bracket is certified only below -1")
    if not args.x_min < args.x_max:
        raise DomainError("--x-min must be < --x-max")
    if not math.isfinite(args.x_min):
        raise DomainError("--x-min must be finite")
    lower, upper = partial_sum(2 * args.n - 1), partial_sum(2 * args.n)

    def blocks():
        # one chunk's arrays at a time: the full table is never built
        for start in range(0, args.points, _CHUNK_ROWS):
            grid = _sweep_grid(args.x_min, args.x_max, args.points, args.log_grid,
                               start, min(start + _CHUNK_ROWS, args.points))
            cols = [grid, clenshaw_eval(lower, grid), clenshaw_eval(upper, grid), np.exp(grid)]
            if args.with_taylor:
                cols += [taylor_eval(2 * args.n - 1, grid), taylor_eval(2 * args.n, grid)]
            for row in range(0, len(grid), _BLOCK_ROWS):
                block = [c[row:row + _BLOCK_ROWS] for c in cols]
                yield block if args.with_taylor else block + [[None] * len(block[0])] * 2

    _emit_blocks(args, SWEEP_COLUMNS, -(-args.points // _BLOCK_ROWS), blocks())
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
    _emit_table(args, columns, rows, payload=payload)
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
    args.format = args.format or ("json" if args.command == "certify" else "csv")
    try:
        # overflow far from -1 already shows as inf/nan cells; numpy's warnings
        # would put its source lines on stderr, which carries chebbound's own
        with np.errstate(over="ignore", invalid="ignore"):
            return _DISPATCH[args.command](args)
    except DomainError as exc:
        print(f"chebbound {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except (OSError, MemoryError) as exc:
        if isinstance(exc, BrokenPipeError) and args.output is None:
            # the reader of stdout left (`| head`): as the signal module's docs
            # advise, let the exit-time flush go to devnull, and end quietly
            os.dup2(devnull := os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            os.close(devnull)
            return 0
        print(f"chebbound {args.command}: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
