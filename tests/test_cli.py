import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from mpmath import mp

import oracles
from chebbound.cli import _SWEEP_BLOCK, SWEEP_HEADER, _emit_table, main


@pytest.fixture
def run_cli(capsys):
    def run(args):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        out, err = capsys.readouterr()
        return code, out, err

    return run


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

    @pytest.mark.parametrize("count", (1, 9, _SWEEP_BLOCK, 2 * _SWEEP_BLOCK + 3))
    @pytest.mark.parametrize("nonfinite_from", (None, 0, _SWEEP_BLOCK))
    def test_matches_the_per_cell_text(self, capsys, count, nonfinite_from):
        rows = self._rows(count, nonfinite_from)
        assert self._emit(capsys, "json", self.COLUMNS, iter(rows)) == _reference_json(self.COLUMNS, rows)
        assert self._emit(capsys, "csv", self.COLUMNS, iter(rows)) == _reference_csv(self.COLUMNS, rows)

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

        rows = self._rows(2 * _SWEEP_BLOCK + 3, nonfinite_from=0)
        raw = ShortRaw()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8", write_through=True))
        for fmt, reference in (("json", _reference_json), ("csv", _reference_csv)):
            raw.data = b""
            _emit_table(argparse.Namespace(format=fmt, output=None), self.COLUMNS, rows)
            assert raw.data.decode() == reference(self.COLUMNS, rows)

    def test_a_column_of_mixed_types_is_refused(self, capsys):
        with pytest.raises(TypeError, match="'f' mixes"):
            self._emit(capsys, "csv", ("f",), [(1.0,), (None,)])


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


class TestEnclose:
    def test_point_at_minus_two(self, run_cli):
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

    def test_full_range(self, run_cli):
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
        import chebbound.cli as cli_mod
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
from chebbound import build_G_closed_form, build_G_via_reduction, cli
assert "mpmath" not in sys.modules, "import chebbound loaded mpmath"
sys.modules["mpmath"] = None  # any later import of mpmath raises ImportError
assert build_G_via_reduction(64).coeffs.tolist() == build_G_closed_form(64).coeffs.tolist()
assert cli.main(["certify", "--range", "1..64"]) == 0
assert cli.main(["enclose", "--n", "3", "--x=-2.5"]) == 0
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count('"verdict": "accepted"') == 64
    assert proc.stdout.endswith(",5,6\n")


SWEEP_100K = [sys.executable, "-m", "chebbound", "sweep", "--n", "4", "--x-min=-30", "--x-max=-2",
              "--points", "100000"]


def test_reader_leaving_early_is_a_quiet_success():
    with subprocess.Popen(SWEEP_100K, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == (SWEEP_HEADER + "\n").encode()
        proc.stdout.close()
        assert proc.wait(timeout=120) == 0
        assert proc.stderr.read() == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_write_error_is_exit_1_with_the_message():
    with open("/dev/full", "w") as full:
        proc = subprocess.run(SWEEP_100K, stdout=full, stderr=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == "chebbound sweep: error: [Errno 28] No space left on device\n"
