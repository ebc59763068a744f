import argparse
import csv
import errno
import io
import json
import math
import os
import signal
import subprocess
import sys
import warnings

import numpy as np
import pytest
from mpmath import mp

import chebbound as cb
import oracles
import chebbound.cli as cli_mod
from chebbound.cli import _BLOCK_ROWS, SWEEP_HEADER, _emit_blocks, _emit_table, main
from conftest import _no_child_is_left, _workers


def _parse_csv(text):
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    return rows[0], rows[1:]


def _reference_json(columns, rows):
    return json.dumps([dict(zip(columns, r)) for r in rows], indent=2) + "\n"


def _reference_csv(columns, rows):
    def cell(v):
        if type(v) is float:
            return format(v, ".17g")
        if v is None:
            return ""
        if type(v) is bool:
            return "true" if v else "false"
        return str(v)

    return "\n".join([",".join(columns)] + [",".join(map(cell, r)) for r in rows]) + "\n"


class TestEmitTable:
    """The block-wise emitter against the per-cell text it replaced."""

    COLUMNS = ("i", "f", "b", "none", "s", 'odd "%s" 100%')
    NONFINITE = (math.nan, math.inf, -math.inf)

    def _rows(self, count, nonfinite_from=None):
        rows = []
        for k in range(count):
            f = -1.0 - k * 1.37e-3 if k % 7 else (-0.0, 1e308, 5e-324, 1 / 3, -1e-300, 2.5e15, 10.0)[k // 7 % 7]
            if nonfinite_from is not None and k >= nonfinite_from and k % 5 == 0:
                f = self.NONFINITE[k // 5 % 3]
            rows.append((k * 10**15, f, k % 3 == 0, None, ("a", '"q" %s, é\n', "")[k % 3], -k))
        return rows

    def _emit(self, capsys, fmt, columns, rows, payload=None):
        _emit_table(argparse.Namespace(format=fmt, output=None), columns, rows, payload=payload)
        out, err = capsys.readouterr()
        assert err == ""
        return out

    # the last block is the child's (odd) at 2R and 3R + 1 rows, this
    # process's at 2R + 1 and 16R + 3, and short at 2R + 1 and 3R + 1
    @pytest.mark.parametrize("count", (1, 9, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS,
                                       2 * _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 1, 8 * _BLOCK_ROWS,
                                       16 * _BLOCK_ROWS + 3))
    @pytest.mark.parametrize("nonfinite_from", (None, 0, 8 * _BLOCK_ROWS))
    def test_matches_the_per_cell_text(self, capsys, cpus, count, nonfinite_from):
        rows = self._rows(count, nonfinite_from)
        assert self._emit(capsys, "json", self.COLUMNS, iter(rows)) == _reference_json(self.COLUMNS, rows)
        assert self._emit(capsys, "csv", self.COLUMNS, iter(rows)) == _reference_csv(self.COLUMNS, rows)

    def test_four_cpus_fork_one_child(self, capsys, monkeypatch):
        _workers(monkeypatch, 4)
        fork, forks = os.fork, []

        def counted_fork():
            forks.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        rows = self._rows(8 * _BLOCK_ROWS)
        assert self._emit(capsys, "csv", self.COLUMNS, rows) == _reference_csv(self.COLUMNS, rows)
        assert len(forks) == 1
        _no_child_is_left()

    def test_a_child_that_fails_is_an_error_and_is_reaped(self, capsys, monkeypatch):
        _workers(monkeypatch, 2)
        parent, format_block, write_all = os.getpid(), cli_mod._format_block, cli_mod._write_all

        def fail_in_a_child():
            if os.getpid() != parent:
                raise MemoryError

        # before it sends the block it owes
        monkeypatch.setattr(cli_mod, "_format_block", lambda *args: fail_in_a_child() or format_block(*args))
        with pytest.raises(ChildProcessError, match="row formatter .* stopped before the end"):
            self._emit(capsys, "csv", self.COLUMNS, self._rows(3 * _BLOCK_ROWS))
        _no_child_is_left()
        # after its last block, the only one of three
        monkeypatch.setattr(cli_mod, "_format_block", format_block)
        monkeypatch.setattr(cli_mod, "_write_all", lambda *args: write_all(*args) or fail_in_a_child())
        with pytest.raises(ChildProcessError, match="row formatter .* exited with status 1"):
            self._emit(capsys, "csv", self.COLUMNS, self._rows(3 * _BLOCK_ROWS))
        _no_child_is_left()

    def test_a_child_leaves_through_os_exit_whatever_it_raises(self, capsys, monkeypatch, tmp_path):
        # an interrupt in the child before it sends its first block: it must not
        # unwind into this process's stack and run its cleanup twice
        _workers(monkeypatch, 2)
        parent, format_block = os.getpid(), cli_mod._format_block

        def interrupted(*args):
            if os.getpid() != parent:
                raise KeyboardInterrupt
            return format_block(*args)

        exits, exit_ = tmp_path / "exits", os._exit

        def recorded_exit(status):
            exits.write_text(str(status))
            exit_(status)

        monkeypatch.setattr(cli_mod, "_format_block", interrupted)
        monkeypatch.setattr(os, "_exit", recorded_exit)
        with pytest.raises(ChildProcessError, match="row formatter .* stopped before the end"):
            self._emit(capsys, "csv", self.COLUMNS, self._rows(3 * _BLOCK_ROWS))
        assert exits.read_text() == "1"
        _no_child_is_left()

    def test_a_failed_write_ends_and_reaps_every_child(self, capsys, monkeypatch):
        _workers(monkeypatch, 3)
        writes = []

        def full_from_the_third_block(out, text):
            # block 1 came from the child, which still owes blocks 3 and 5
            writes.append(text)
            if len(writes) > 2:
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli_mod, "_write", full_from_the_third_block)
        with pytest.raises(OSError, match="No space"):
            self._emit(capsys, "csv", self.COLUMNS, self._rows(6 * _BLOCK_ROWS))
        _no_child_is_left()

    def test_each_block_is_formatted_once_and_the_odd_ones_in_the_child(self, capsys, monkeypatch, cpus,
                                                                          tmp_path):
        formatted = tmp_path / "formatted"
        fd = os.open(formatted, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        rows = self._rows(5 * _BLOCK_ROWS + 1)
        format_block = cli_mod._format_block

        def logged(columns, keys, block, as_json, sep):
            # each block's first column holds k * 10**15 for its rows k
            os.write(fd, f"{block[0][0] // 10**15 // _BLOCK_ROWS} {os.getpid()}\n".encode())
            return format_block(columns, keys, block, as_json, sep)

        monkeypatch.setattr(cli_mod, "_format_block", logged)
        blocks = (list(zip(*rows[i:i + _BLOCK_ROWS])) for i in range(0, len(rows), _BLOCK_ROWS))
        try:
            _emit_blocks(argparse.Namespace(format="csv", output=None), self.COLUMNS, 6, blocks)
        finally:
            os.close(fd)
        assert capsys.readouterr() == (_reference_csv(self.COLUMNS, rows), "")
        lines = formatted.read_text().splitlines()
        pids = dict(map(int, line.split()) for line in lines)
        assert sorted(pids) == list(range(6)) and len(lines) == 6
        here = os.getpid()
        assert [pids[i] == here for i in range(6)] == [True, cpus == 1] * 3

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open fds from /proc/self/fd")
    def test_a_failed_fork_is_exit_1_and_leaves_no_fd_open(self, run_cli, monkeypatch):
        _workers(monkeypatch, 2)
        refused = BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        def fork():
            raise refused

        monkeypatch.setattr(os, "fork", fork)
        before = sorted(os.listdir("/proc/self/fd"))
        code, out, err = run_cli(["sweep", "--n", "2", "--x-min=-4", "--x-max=-2", "--points", "1025"])
        assert sorted(os.listdir("/proc/self/fd")) == before
        assert (code, out) == (1, "")
        assert err == f"chebbound sweep: error: {refused}\n"

    def test_the_fork_warning_of_a_threaded_process_is_ignored(self, capsys, monkeypatch):
        _workers(monkeypatch, 2)
        fork = os.fork

        def warning_fork():
            # as Python 3.12 and later warn where the process has threads,
            # once the child exists
            pid = fork()
            if pid:
                warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead "
                              "to deadlocks in the child.", DeprecationWarning, stacklevel=2)
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        rows = self._rows(3 * _BLOCK_ROWS)
        assert self._emit(capsys, "csv", self.COLUMNS, rows) == _reference_csv(self.COLUMNS, rows)
        _no_child_is_left()

    def test_sum_overflow_is_not_taken_for_a_nonfinite_cell(self, capsys):
        rows = [(1.7e308,), (1.7e308,), (-0.1,)]
        assert self._emit(capsys, "json", ("f",), rows) == _reference_json(("f",), rows)

    def test_a_table_of_empty_columns_keeps_its_rows(self, capsys):
        rows = [(None, None)] * 3
        assert self._emit(capsys, "json", ("a", "b"), rows) == _reference_json(("a", "b"), rows)
        assert self._emit(capsys, "csv", ("a", "b"), rows) == "a,b\n,\n,\n,\n"

    def test_empty_table(self, capsys):
        assert self._emit(capsys, "json", self.COLUMNS, []) == "[]\n"
        assert self._emit(capsys, "csv", self.COLUMNS, []) == ",".join(self.COLUMNS) + "\n"

    def test_payload_is_dumped_as_given(self, capsys):
        payload = {"x": -3.0, "nested": [{"a": math.nan}], "ok": True}
        text = self._emit(capsys, "json", ("x",), [(-3.0,)], payload=payload)
        assert text == json.dumps(payload, indent=2) + "\n"
        assert self._emit(capsys, "csv", ("x",), [(-3.0,)], payload=payload) == "x\n-3\n"

    def test_short_raw_writes_are_finished(self, capsys, monkeypatch):
        # unbuffered stdout (python -u) hands each write to the raw stream once;
        # a pipe write cut short by a signal returns a short count like this one
        class ShortRaw(io.RawIOBase):
            data = b""

            def writable(self):
                return True

            def write(self, b):
                self.data += bytes(b[:1000])
                return min(len(b), 1000)

        rows = self._rows(16 * _BLOCK_ROWS + 3, nonfinite_from=0)
        raw = ShortRaw()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8", write_through=True))
        for fmt, reference in (("json", _reference_json), ("csv", _reference_csv)):
            raw.data = b""
            _emit_table(argparse.Namespace(format=fmt, output=None), self.COLUMNS, rows)
            assert raw.data.decode() == reference(self.COLUMNS, rows)

    def test_a_column_of_mixed_types_is_refused(self, capsys, cpus):
        with pytest.raises(TypeError, match="'f' mixes"):
            self._emit(capsys, "csv", ("f",), [(1.0,), (None,)])
        # in block 2, after the child was forked: this process builds it and raises
        with pytest.raises(TypeError, match="'f' mixes"):
            self._emit(capsys, "csv", ("f",), [(1.0,)] * 2 * _BLOCK_ROWS + [(1.0,), (None,)])
        # in block 1, which the child builds where there are two CPUs: it fails
        with pytest.raises(TypeError if cpus == 1 else ChildProcessError,
                           match="'f' mixes" if cpus == 1 else "row formatter .* stopped before the end"):
            self._emit(capsys, "csv", ("f",), [(1.0,)] * _BLOCK_ROWS + [(1.0,), (None,)])


class TestCoeffs:
    def test_three_rows(self, run_cli):
        code, out, err = run_cli(["coeffs", "--n", "2"])
        assert code == 0 and err == ""
        header, rows = _parse_csv(out)
        assert header == ["index", "a"]
        assert [r[0] for r in rows] == ["0", "1", "2"]
        assert float(rows[0][1]) == pytest.approx(1.2660658777520084, rel=1e-15)
        assert float(rows[1][1]) == pytest.approx(1.1303182079849703, rel=1e-15)
        assert float(rows[2][1]) == pytest.approx(0.27149533953407656, rel=1e-15)

    def test_single_row(self, run_cli):
        code, out, _ = run_cli(["coeffs", "--n", "0"])
        assert code == 0
        _, rows = _parse_csv(out)
        assert len(rows) == 1

    def test_negative_degree_is_exit_2(self, run_cli):
        code, out, err = run_cli(["coeffs", "--n", "-1"])
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_json_format(self, run_cli):
        code, out, _ = run_cli(["coeffs", "--n", "1", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert [row["index"] for row in payload] == [0, 1]


def _fork_fails(monkeypatch):
    def fork():
        raise AssertionError("a small table forked")

    monkeypatch.setattr(os, "fork", fork)


class TestEnclose:
    def test_point_at_minus_two(self, run_cli, monkeypatch):
        _fork_fails(monkeypatch)
        code, out, _ = run_cli(["enclose", "--n", "1", "--x", "-2"])
        assert code == 0
        header, rows = _parse_csv(out)
        assert header == ["x", "lower", "upper", "lower_degree", "upper_degree"]
        row = rows[0]
        assert float(row[1]) == pytest.approx(-0.9945705382179317, rel=1e-12)
        assert float(row[2]) == pytest.approx(0.9058968385206042, rel=1e-12)
        assert row[3:] == ["1", "2"]

    def test_domain_rejection(self, run_cli):
        code, out, err = run_cli(["enclose", "--n", "1", "--x", "-0.5"])
        assert code == 2
        assert out == ""
        assert "-1" in err

    def test_near_edge_containment(self, run_cli):
        code, out, _ = run_cli(["enclose", "--n", "5", "--x", "-1.0001", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        ref = oracles.mp_exp(mp.mpf("-1.0001"))
        assert payload["lower"] <= ref <= payload["upper"]


@pytest.mark.parametrize(
    "joined",
    (
        ["enclose", "--n", "2", "--x=-1e4"],
        ["enclose", "--n", "3", "--x=-1.5E+3", "--format", "json"],
        ["enclose", "--n", "1", "--x=-.5e1"],
        ["sweep", "--n", "2", "--x-min=-1e2", "--x-max=-1.5e0", "--points", "5"],
        ["enclose", "--n", "2", "--x=-inf"],
        ["enclose", "--n", "2", "--x=-nan"],
    ),
    ids=("exponent", "signed-exponent-json", "leading-dot", "sweep", "inf", "nan"),
)
def test_negative_float_spellings_parse_alike(run_cli, joined):
    spaced = [part for token in joined for part in token.split("=")]
    with np.errstate(invalid="ignore"):
        code, out, err = run_cli(spaced)
        assert "expected one argument" not in err
        assert (code, out, err) == run_cli(joined)


class TestSweep:
    BASE = ["sweep", "--n", "2", "--x-min", "-4", "--x-max", "-1.01", "--points", "100"]

    def test_rows_and_containment(self, run_cli):
        code, out, err = run_cli(self.BASE)
        assert code == 0 and err == ""
        header, rows = _parse_csv(out)
        assert ",".join(header) == SWEEP_HEADER
        assert len(rows) == 100
        xs = [float(r[0]) for r in rows]
        assert xs == sorted(xs)
        for r in rows:
            x, lower, upper, ref = (float(v) for v in r[:4])
            assert lower <= ref <= upper
            assert ref == pytest.approx(math.exp(x), rel=1e-15)
            assert r[4] == "" and r[5] == ""

    def test_determinism(self, run_cli):
        _, first, _ = run_cli(self.BASE)
        _, second, _ = run_cli(self.BASE)
        assert first == second

    def test_round_trip_17g(self, run_cli):
        _, out, _ = run_cli(self.BASE)
        _, rows = _parse_csv(out)
        for r in rows:
            for token in r[:4]:
                assert format(float(token), ".17g") == token

    def test_with_taylor_columns(self, run_cli):
        code, out, _ = run_cli(self.BASE + ["--with-taylor"])
        assert code == 0
        _, rows = _parse_csv(out)
        for r in rows:
            ref = float(r[3])
            assert float(r[4]) <= ref <= float(r[5])

    def test_two_points_are_the_endpoints(self, run_cli):
        code, out, _ = run_cli(
            ["sweep", "--n", "1", "--x-min", "-3", "--x-max", "-2", "--points", "2"]
        )
        assert code == 0
        _, rows = _parse_csv(out)
        assert [float(r[0]) for r in rows] == [-3.0, -2.0]

    def test_log_grid(self, run_cli):
        code, out, _ = run_cli(
            ["sweep", "--n", "1", "--x-min", "-1000", "--x-max", "-1.01",
             "--points", "7", "--log-grid"]
        )
        assert code == 0
        _, rows = _parse_csv(out)
        xs = [float(r[0]) for r in rows]
        assert xs == sorted(xs)
        assert xs[0] == pytest.approx(-1000.0)
        assert xs[-1] == pytest.approx(-1.01)

    @pytest.mark.parametrize(
        "bad",
        (
            ["sweep", "--n", "2", "--x-min", "-4", "--x-max", "-1", "--points", "100"],
            ["sweep", "--n", "2", "--x-min", "-4", "--x-max", "-1.01", "--points", "1"],
            ["sweep", "--n", "2", "--x-min", "-1.01", "--x-max", "-4", "--points", "10"],
            ["sweep", "--n", "0", "--x-min", "-4", "--x-max", "-1.01", "--points", "10"],
            ["sweep", "--n", "2", "--x-min=-inf", "--x-max", "-1.01", "--points", "10"],
            ["sweep", "--n", "2", "--x-min=-inf", "--x-max", "-1.01", "--points", "10", "--log-grid"],
        ),
    )
    def test_domain_violations(self, run_cli, bad):
        code, out, _ = run_cli(bad)
        assert code == 2
        assert out == ""

    def test_json_rows(self, run_cli):
        code, out, _ = run_cli(self.BASE[:-1] + ["4", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 4
        assert payload[0]["taylor_lower"] is None


C = cli_mod._CHUNK_ROWS


def _grid_triples():
    rng = np.random.default_rng(2025)
    triples = [(-30.0, -1.01, 2), (-30.0, -1.01, C - 1), (-30.0, -1.01, C), (-30.0, -1.01, C + 1),
               (-1e300, -2.0, 2), (-1e300, -2.0, C + 1), (-1e300, -1.000001, 3 * C + 5),
               # one float apart, with equal log10: every log-grid row but the ends is one value
               (float(np.nextafter(-1e4, -np.inf)), -1e4, C + 1)]
    for _ in range(300):
        x_max = -1.0 - 10.0 ** rng.uniform(-6, 4)
        x_min = x_max - 10.0 ** rng.uniform(-9, 300 if rng.random() < 0.1 else 5)
        triples.append((x_min, x_max, int(rng.integers(2, 3 * C + 3))))
    return triples


class TestSweepGrid:
    """The chunked grid, joined, against the whole-array numpy grid it replaced, bit for bit."""

    @pytest.mark.parametrize("log_grid", (False, True), ids=("linear", "log"))
    def test_chunks_join_to_the_numpy_grid(self, log_grid):
        triples = _grid_triples()
        x_min, x_max, _ = triples[7]
        assert x_min < x_max and np.log10(-x_min) == np.log10(-x_max)
        for x_min, x_max, points in triples:
            whole = -np.geomspace(-x_min, -x_max, points) if log_grid else np.linspace(x_min, x_max, points)
            joined = np.concatenate([cli_mod._sweep_grid(x_min, x_max, points, log_grid, start,
                                                         min(start + C, points))
                                     for start in range(0, points, C)])
            assert joined.tobytes() == whole.tobytes(), (x_min, x_max, points)

    def test_each_process_computes_each_chunk_once(self, run_cli, cpus, tmp_path):
        computed = tmp_path / "computed"
        fd = os.open(computed, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        sweep_grid = cli_mod._sweep_grid

        def recorded(x_min, x_max, points, log_grid, start, stop):
            os.write(fd, f"{os.getpid()} {start} {stop}\n".encode())
            return sweep_grid(x_min, x_max, points, log_grid, start, stop)

        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cli_mod, "_sweep_grid", recorded)
                code, out, err = run_cli(["sweep", "--n", "2", "--x-min=-4", "--x-max=-2",
                                          "--points", str(2 * C + 1)])
        finally:
            os.close(fd)
        assert (code, err, out.count("\n")) == (0, "", 2 * C + 2)
        chunks = {}
        for line in computed.read_text().splitlines():
            pid, start, stop = map(int, line.split())
            chunks.setdefault(pid, []).append((start, stop))
        # the last chunk, of one row, is in block 2 * 16, an even one
        here = chunks.pop(os.getpid())
        assert here == [(0, C), (C, 2 * C), (2 * C, 2 * C + 1)]
        assert list(chunks.values()) == ([] if cpus == 1 else [[(0, C), (C, 2 * C)]])


# a process's peak resident size starts, at its exec, at the peak of the
# memory it had before (its parent's, after a fork or a vfork), so a small
# interpreter starts each sweep rather than this one
PEAK_RSS = """
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "chebbound", *sys.argv[1:]], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_rss_mb(argv):
    out = subprocess.run([sys.executable, "-c", PEAK_RSS, *argv], capture_output=True, text=True,
                         timeout=120, check=True).stdout
    code, kilobytes = map(int, out.split())
    assert code == 0
    return kilobytes / 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in kilobytes on Linux")
def test_sweep_memory_does_not_grow_with_its_points():
    argv = ["sweep", "--n", "10", "--x-min=-30", "--x-max=-1.01", "--with-taylor", "--points"]
    small, large = _peak_rss_mb(argv + ["2000"]), _peak_rss_mb(argv + ["400000"])
    # the six float64 columns of 400k rows alone would take 19.2 MB
    assert large - small < 4.0, (small, large)


class TestCertify:
    def test_single_degree(self, run_cli):
        code, out, _ = run_cli(["certify", "--n", "1"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 1
        cert = payload[0]
        assert cert["n"] == 1
        assert cert["ratio_bound"] == {"num": 4, "den": 10}
        assert cert["conditions"] == {
            "unit_quadratic": True,
            "shifted_quadratic": True,
            "leading_positive": True,
        }
        assert cert["verdict"] == "accepted"

    def test_full_range(self, run_cli, monkeypatch):
        _fork_fails(monkeypatch)
        code, out, _ = run_cli(["certify", "--range", "1..64"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 64
        assert all(c["verdict"] == "accepted" for c in payload)

    @pytest.mark.parametrize(
        "bad",
        (
            ["certify", "--n", "0"],
            ["certify", "--range", "0..5"],
            ["certify", "--range", "5..3"],
            ["certify", "--range", "abc"],
        ),
    )
    def test_invalid_inputs(self, run_cli, bad):
        code, out, _ = run_cli(bad)
        assert code == 2

    def test_csv_format(self, run_cli):
        code, out, _ = run_cli(["certify", "--range", "1..3", "--format", "csv"])
        assert code == 0
        header, rows = _parse_csv(out)
        assert header[0] == "n"
        assert len(rows) == 3
        assert all(r[-1] == "accepted" for r in rows)

    def test_any_rejection_is_exit_1(self, run_cli, monkeypatch):
        # no real degree >= 1 is rejected, so force one to pin the exit code
        from chebbound.certificate import Certificate
        from fractions import Fraction

        def fake(n):
            return Certificate(n, Fraction(4, 5 * (n + 1)), True, False, True, "rejected")

        monkeypatch.setattr(cli_mod, "sign_certificate", fake)
        code, out, _ = run_cli(["certify", "--n", "2"])
        assert code == 1
        assert json.loads(out)[0]["verdict"] == "rejected"


class TestCompare:
    def test_five_degrees(self, run_cli):
        code, out, _ = run_cli(["compare", "--n", "5", "--points", "1000"])
        assert code == 0
        header, rows = _parse_csv(out)
        assert header == ["degree", "cheb_sup_err", "taylor_sup_err"]
        assert len(rows) == 5
        for r in rows:
            assert float(r[1]) <= float(r[2])

    def test_single_degree(self, run_cli):
        code, out, _ = run_cli(["compare", "--n", "1", "--points", "100"])
        assert code == 0
        _, rows = _parse_csv(out)
        assert len(rows) == 1

    def test_point_floor(self, run_cli):
        code, out, _ = run_cli(["compare", "--n", "5", "--points", "99"])
        assert code == 2
        assert out == ""

    # numpy's, as at --points 100000000000 where the host refuses 745 GiB,
    # and Python's own, which has no message
    REFUSED = "Unable to allocate 745. GiB for an array with shape (100000000000,) and data type float64"

    @pytest.mark.parametrize("message, shown", ((REFUSED, REFUSED), ("", "MemoryError")), ids=("numpy", "bare"))
    def test_a_failed_allocation_is_exit_1_with_the_message(self, run_cli, monkeypatch, message, shown):
        def refused(degree, points):
            raise MemoryError(message) if message else MemoryError

        monkeypatch.setattr(cli_mod, "sup_error_comparison", refused)
        code, out, err = run_cli(["compare", "--n", "2", "--points", "100000000000"])
        assert (code, out, err) == (1, "", f"chebbound compare: error: {shown}\n")


def test_output_file(tmp_path, run_cli):
    target = tmp_path / "coeffs.csv"
    code, out, _ = run_cli(["coeffs", "--n", "2", "--output", str(target)])
    assert code == 0
    assert out == ""
    header, rows = _parse_csv(target.read_text())
    assert header == ["index", "a"]
    assert len(rows) == 3


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "chebbound", "certify", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload[0]["verdict"] == "accepted"


@pytest.mark.parametrize("args", (
    ["coeffs", "--n", "151"],
    ["enclose", "--n", "76", "--x=-3"],
    ["sweep", "--n", "76", "--x-min=-4", "--x-max=-2", "--points", "3"],
))
def test_past_the_series_limit_is_exit_2_with_one_line(run_cli, args):
    code, out, err = run_cli(args)
    assert code == 2
    assert out == ""
    assert err.startswith(f"chebbound {args[0]}: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("args", (
    ["enclose", "--n", "2", "--x=-inf"],
    ["enclose", "--n", "2", "--x=-1e200"],
    ["sweep", "--n", "4", "--x-min=-1e300", "--x-max=-2", "--log-grid", "--points", "3000",
     "--format", "json", "--with-taylor"],
))
def test_overflow_far_from_the_edge_leaves_stderr_empty(args):
    proc = subprocess.run([sys.executable, "-m", "chebbound", *args],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_runtime_needs_no_mpmath():
    script = """
import sys
import chebbound
from chebbound import (build_G_closed_form, build_G_via_reduction, cli, decomposition_check,
                       decomposition_quadratics, grid_sign_scan)
assert "mpmath" not in sys.modules, "import chebbound loaded mpmath"
sys.modules["mpmath"] = None  # any later import of mpmath raises ImportError
assert build_G_via_reduction(64).coeffs.tolist() == build_G_closed_form(64).coeffs.tolist()
assert decomposition_check(8, 1.0) <= 1e-9
assert len(decomposition_quadratics(8)) == 5
assert grid_sign_scan(8, -100.0, 50)
assert cli.main(["certify", "--range", "1..64"]) == 0
assert cli.main(["enclose", "--n", "3", "--x=-2.5"]) == 0
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count('"verdict": "accepted"') == 64
    assert proc.stdout.endswith(",5,6\n")


# every float-point entry of the API, as one expression
FLOAT_CALLS = """(
    cb.cheb_sandwich(8, -5.0), cb.taylor_sandwich(7, -2.5), cb.clenshaw_eval(cb.partial_sum(6), -3.0),
    cb.eval_T(5, -1.5), cb.eval_U(4, -2), cb.taylor_eval(9, -4.0), cb.bessel_i(3, 1.0),
    cb.bessel_i_enclosure(2, 0.5), cb.partial_sum(8).values, cb.build_G_via_reduction(8).values,
    cb.sign_certificate(8),
)"""


def test_float_points_need_no_numpy():
    script = f"""
import sys
import chebbound as cb
assert "numpy" not in sys.modules, "import chebbound loaded numpy"
sys.modules["numpy"] = None  # any later import of numpy raises ImportError
print(repr({FLOAT_CALLS}))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == repr(eval(FLOAT_CALLS)) + "\n"


def test_import_loads_neither_dataclasses_nor_inspect():
    # without site (-S), with the package's own path; the modules loaded
    # before the import are taken out, so a module that the interpreter
    # loads at start-up neither counts nor hides one that the import loads
    script = f"""
import sys
sys.path.insert(0, {os.path.dirname(os.path.dirname(cb.__file__))!r})
watched, before = {{"dataclasses", "inspect"}}, set(sys.modules)
import chebbound
print(sorted(watched & before), sorted(watched & (set(sys.modules) - before)))
"""
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # neither loaded before the import, and neither loaded by it
    assert proc.stdout == "[] []\n"


# array calls on series first made and evaluated at float points
ARRAY_CALLS = """
import hashlib
import numpy as np
xs = np.linspace(-30.0, -1.01, 2 * 32768 + 17)
outs = (cb.clenshaw_eval(cb.partial_sum(31), xs), cb.clenshaw_eval(cb.partial_sum(8), xs[:999]),
        cb.taylor_eval(9, xs), cb.eval_U(6, xs[:99]), cb.partial_sum(8).coeffs,
        cb.exp_cheb_coefficients(31), cb.build_G_via_reduction(8).coeffs)
digest = hashlib.sha256(b"".join(o.tobytes() for o in outs)).hexdigest()
"""


def test_arrays_after_a_float_only_start_keep_their_bits():
    script = f"""
import sys
import chebbound as cb
{FLOAT_CALLS}
cb.cheb_sandwich(16, -5.0)
assert "numpy" not in sys.modules
{ARRAY_CALLS}
print(digest)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    here = {"cb": cb}
    exec(ARRAY_CALLS, here)
    assert proc.stdout == here["digest"] + "\n"


SWEEP_100K = [sys.executable, "-m", "chebbound", "sweep", "--n", "4", "--x-min=-30", "--x-max=-2",
              "--points", "100000"]


def _no_process_is_left(proc):
    # the run had a session of its own: none of its row formatters outlived it
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open fds from /proc/self/fd")
def test_reader_leaving_early_leaves_no_fd_open(monkeypatch):
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    # unbuffered, so the first block's write meets the closed pipe
    stdout = io.TextIOWrapper(io.FileIO(write_fd, "w"), encoding="utf-8", write_through=True)
    monkeypatch.setattr(sys, "stdout", stdout)
    with stdout:
        before = sorted(os.listdir("/proc/self/fd"))
        assert main(["sweep", "--n", "2", "--x-min=-4", "--x-max=-2", "--points", "3"]) == 0
        assert sorted(os.listdir("/proc/self/fd")) == before


def test_reader_leaving_early_is_a_quiet_success():
    with subprocess.Popen(SWEEP_100K, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as proc:
        assert proc.stdout.readline() == (SWEEP_HEADER + "\n").encode()
        proc.stdout.close()
        try:
            assert proc.wait(timeout=120) == 0
        except subprocess.TimeoutExpired:
            # the whole session: a hung sweep's formatter child too
            os.killpg(proc.pid, signal.SIGKILL)
            raise
        assert proc.stderr.read() == b""
    _no_process_is_left(proc)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_write_error_is_exit_1_with_the_message():
    with open("/dev/full", "w") as full, subprocess.Popen(SWEEP_100K, stdout=full, stderr=subprocess.PIPE,
                                                          text=True, start_new_session=True) as proc:
        try:
            _, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    assert proc.returncode == 1
    assert err == "chebbound sweep: error: [Errno 28] No space left on device\n"
    _no_process_is_left(proc)
