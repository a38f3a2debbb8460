"""``emit_csv`` and ``emit_svg_scatter`` against one-row-at-a-time writers.

Both writers build a file's text from whole columns and write it once: the
records CSV joins the ``repr`` of each column, the flags cells come from the
raised trials of each flag, and the plot takes each axis' log10 ends and
span once.  The definitions they must match byte for byte are the writers
below, which go one trial or one point at a time: ``_flag_cells_by_trial``,
``_records_csv_by_row`` and ``_svg_scatter_by_point``.  The golden digests
cover the README suite shape; these tests feed both the cases those miss:
ragged input, trials flagged by several kernels, plots with no finite
points or with every point equal, zeros and negative values on log axes,
and the int ``trial_id`` column on x.

Both write through ``_write_text``, which overwrites a file in place and
cuts it to length.  Its tests below each fail against a simpler writer:
one that never cuts, one that always truncates, one that replaces the file
by rename, or one that leaves a failed write's bytes behind.
"""

import errno
import math
import os
import stat

import numpy as np
import pytest

from conftest import emit_vectors_csv
from lselab.cli import main
from lselab.harness import (
    CSV_HEADER,
    DataSpec,
    _COLUMNS,
    _flag_cells,
    _write_text,
    emit_csv,
    generate,
    ingest_csv,
    run_experiment,
)
from lselab.precision import format_params
from lselab.quantities import KERNELS
from lselab.svgplot import _HEIGHT, _MARGIN, _WIDTH, emit_svg_scatter

FP16 = format_params("fp16")
# r_max is about 256: exp overflows above x = 5.5, and a sum of 300 ones
# overflows, so the shifted kernels raise flags too
TINY = format_params("custom:t=11,emin=-6,emax=7,subnormals=0")


def _flag_cells_by_trial(records) -> list[str]:
    """Each trial's flags cell, read one flag of one trial at a time."""
    cells: list[list[str]] = [[] for _ in range(len(records))]
    for kernel in KERNELS:
        flags = records.flags[kernel]
        names = sorted(flags)
        for i in np.flatnonzero(records.excluded(kernel)).tolist():
            cells[i].append(f"{kernel}:" + "+".join(n for n in names if flags[n][i]))
    return [";".join(c) for c in cells]


def _records_csv_by_row(records, path) -> None:
    """The records CSV, one write per row."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        columns = (records.columns[name].tolist() for name in _COLUMNS)
        for *values, flags in zip(*columns, _flag_cells_by_trial(records)):
            fh.write(",".join((*map(repr, values), flags)) + "\n")


def _transform(v: float, lo: float, hi: float, log_axes: bool) -> float:
    if log_axes:
        v, lo, hi = math.log10(v), math.log10(lo), math.log10(hi)
    if hi == lo:
        return 0.5
    return (v - lo) / (hi - lo)


def _svg_scatter_by_point(records, x_field, y_field, path, log_axes=False, reference_line=True):
    """The scatter plot, three log10s per coordinate and one line per point."""
    pts = []
    for xv, yv in zip(records.columns[x_field].tolist(), records.columns[y_field].tolist()):
        xv, yv = float(xv), float(yv)
        if not (math.isfinite(xv) and math.isfinite(yv)):
            continue
        if log_axes and (xv <= 0.0 or yv <= 0.0):
            continue
        pts.append((xv, yv))
    if pts:
        xlo = min(p[0] for p in pts)
        xhi = max(p[0] for p in pts)
        ylo = min(p[1] for p in pts)
        yhi = max(p[1] for p in pts)
    else:
        xlo = ylo = 0.1 if log_axes else 0.0
        xhi = yhi = 1.0
    if reference_line:
        lo = min(xlo, ylo)
        hi = max(xhi, yhi)
        xlo = ylo = lo
        xhi = yhi = hi

    def px(v):
        return _MARGIN + _transform(v, xlo, xhi, log_axes) * (_WIDTH - 2 * _MARGIN)

    def py(v):
        return _HEIGHT - _MARGIN - _transform(v, ylo, yhi, log_axes) * (_HEIGHT - 2 * _MARGIN)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_HEIGHT - _MARGIN}" x2="{_WIDTH - _MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="{_HEIGHT - 15}" text-anchor="middle" '
        f'font-size="14">{x_field}</text>',
        f'<text x="18" y="{_HEIGHT / 2:.1f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {_HEIGHT / 2:.1f})">{y_field}</text>',
    ]
    if reference_line:
        lines.append(
            f'<line x1="{px(xlo):.2f}" y1="{py(xlo):.2f}" x2="{px(xhi):.2f}" '
            f'y2="{py(xhi):.2f}" stroke="red" stroke-width="1"/>'
        )
    for xv, yv in pts:
        lines.append(
            f'<circle cx="{px(xv):.2f}" cy="{py(yv):.2f}" r="2.5" '
            f'fill="steelblue" fill-opacity="0.6"/>'
        )
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _ragged(tmp_path):
    """Records of a ragged ``--csv`` file: lengths 1 to 5, interleaved."""
    rng = np.random.default_rng(3)
    vectors = [rng.uniform(-20.0, 20.0, 1 + i % 5).tolist() for i in range(23)]
    vectors[4] = [12.0, 0.0]
    vectors[9] = [-800.0]
    path = tmp_path / "ragged.csv"
    emit_vectors_csv(vectors, path)
    return run_experiment(ingest_csv(path), FP16)


def _multi_flagged():
    """Records whose trials raise flags on up to all four kernels, several at once."""
    data = [[12.0, 0.0], [0.0, 0.0], [-200.0], [7.0, 6.5, -3.0], [0.0] * 300, [6.0] * 300,
            [-60.0, -61.0], *generate(DataSpec("uniform", (-8.0, 8.0), 6, 12, 2))]
    return run_experiment(data, TINY)


def _suite():
    """An fp16 suite of the README shape: many overflowed basic trials."""
    return run_experiment(generate(DataSpec("uniform", (-20.0, 20.0), 10, 40, 5)), FP16)


def _constant():
    """Zero vectors: every column holds one value, zero in the input summary
    and the softmax errors."""
    return run_experiment(generate(DataSpec("constant", (0.0,), 4, 6, 0)), FP16)


def test_cases_are_present(tmp_path):
    """The inputs below hold what the golden suites do not."""
    cells = _flag_cells(_multi_flagged())
    assert max(c.count(";") for c in cells) == 3  # all four kernels flag one trial
    assert any("+" in part for c in cells for part in c.split(";")[1:])
    assert sorted(set(_ragged(tmp_path).columns["n"].tolist())) == [1, 2, 3, 4, 5]
    suite = _suite()
    assert not np.isfinite(suite.columns["err_lse_basic"]).all()
    assert (suite.columns["xmin"] < 0).any() and suite.columns["trial_id"].dtype.kind == "i"
    constant = _constant()
    assert all(len(set(constant.columns[name].tolist())) == 1 for name in _COLUMNS[1:])
    assert constant.columns["xmin"][0] == constant.columns["err_sm_basic"][0] == 0.0


@pytest.mark.parametrize("make", [_suite, _multi_flagged, _constant, None], ids=[
    "suite", "multi-flagged", "constant", "ragged"])
def test_records_csv_matches_row_writer(make, tmp_path):
    records = make() if make else _ragged(tmp_path)
    assert _flag_cells(records) == _flag_cells_by_trial(records)
    emit_csv(records, tmp_path / "columns.csv")
    _records_csv_by_row(records, tmp_path / "rows.csv")
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


PLOTS = [
    ("bnd_lse_basic", "err_lse_basic"),  # overflowed trials skipped
    ("bnd_lse_shift", "err_lse_shift"),
    ("trial_id", "sum_dev_basic"),  # int column on x, trial 0 at zero
    ("trial_id", "sum_dev_shift"),
    ("xmin", "xmax"),  # negative values and zeros
    ("xmax", "y_ref"),
    ("bnd_sm_basic", "bnd_sm_basic"),  # every point equal on a constant suite
    ("n", "n"),
    ("err_sm_basic", "err_sm_shift"),  # all zero on a constant suite
]


@pytest.mark.parametrize("reference_line", [True, False])
@pytest.mark.parametrize("log_axes", [True, False])
@pytest.mark.parametrize("make", [_suite, _multi_flagged, _constant, None], ids=[
    "suite", "multi-flagged", "constant", "ragged"])
def test_svg_matches_point_writer(make, log_axes, reference_line, tmp_path):
    records = make() if make else _ragged(tmp_path)
    columns, points = tmp_path / "columns.svg", tmp_path / "points.svg"
    for args in PLOTS:
        emit_svg_scatter(records, *args, columns, log_axes, reference_line)
        _svg_scatter_by_point(records, *args, points, log_axes, reference_line)
        assert columns.read_bytes() == points.read_bytes(), args


def test_plot_without_finite_points(tmp_path):
    overflowed = run_experiment([[12.0, 0.0], [11.5, 1.0]], FP16)
    assert not np.isfinite(overflowed.columns["err_lse_basic"]).any()
    for log_axes in (True, False):
        for reference_line in (True, False):
            args = ("bnd_lse_basic", "err_lse_basic")
            emit_svg_scatter(overflowed, *args, tmp_path / "a.svg", log_axes, reference_line)
            _svg_scatter_by_point(overflowed, *args, tmp_path / "b.svg", log_axes, reference_line)
            assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
            assert "<circle" not in (tmp_path / "a.svg").read_text()


NEW_TEXT = "trial_id,n\n0,10\n1,10\n"


@pytest.mark.parametrize("old", [
    NEW_TEXT + "2,10\n" * 40,  # a longer file: its tail must go
    NEW_TEXT.replace("1", "7"),  # as long, other bytes
    "0,1\n",  # a shorter file
], ids=["longer", "equal", "shorter"])
def test_rewrite_leaves_exactly_the_new_bytes(old, tmp_path):
    path = tmp_path / "out.csv"
    path.write_text(old)
    _write_text(path, NEW_TEXT)
    assert path.read_bytes() == NEW_TEXT.encode()


def test_symlink_is_followed(tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old contents, longer than the new ones\n" * 3)
    link.symlink_to(target.name)
    _write_text(link, NEW_TEXT)
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_bytes() == NEW_TEXT.encode()


def test_existing_file_keeps_inode_and_mode(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("x" * 100)
    path.chmod(0o640)
    before = path.stat()
    _write_text(path, NEW_TEXT)
    after = path.stat()
    assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o640)
    assert path.read_bytes() == NEW_TEXT.encode()


def test_devnull_is_not_truncated():
    # ftruncate on a character device raises EINVAL
    _write_text(os.devnull, NEW_TEXT)
    emit_csv(_constant(), os.devnull)


def test_failed_write_leaves_an_empty_file(tmp_path, monkeypatch):
    path = tmp_path / "out.csv"
    path.write_text("old contents\n" * 50)
    real_write = os.write
    calls = []

    def write_then_fail(fd, data):
        calls.append(len(data))
        if len(calls) == 1:
            return real_write(fd, data[:5])  # a short write: the rest is retried
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "write", write_then_fail)
    with pytest.raises(OSError) as info:
        _write_text(path, NEW_TEXT)
    monkeypatch.undo()
    assert info.value.errno == errno.ENOSPC
    assert calls == [len(NEW_TEXT), len(NEW_TEXT) - 5]
    assert path.read_bytes() == b""


def test_missing_directory_raises_and_exits_2(tmp_path, capsys):
    with pytest.raises(FileNotFoundError):
        _write_text(tmp_path / "missing" / "out.csv", NEW_TEXT)
    out = tmp_path / "missing" / "run"
    assert main(["experiment", "--gen", "uniform:0,1", "--count", "3", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(out) in captured.err
    assert not (tmp_path / "missing").exists()


def _experiment(out, count: int, capsys) -> int:
    rc = main(["experiment", "--gen", "uniform:-20,20", "--n", "10", "--count", str(count),
               "--svg", "--log-axes", "--out", str(out)])
    capsys.readouterr()
    return rc


@pytest.mark.parametrize("first,second", [(50, 3), (3, 50)], ids=["shrink", "grow"])
def test_rerun_into_the_same_prefix_matches_a_fresh_run(first, second, tmp_path, capsys):
    (tmp_path / "reused").mkdir()
    (tmp_path / "fresh").mkdir()
    _experiment(tmp_path / "reused" / "run", first, capsys)
    rc = _experiment(tmp_path / "reused" / "run", second, capsys)
    assert rc == _experiment(tmp_path / "fresh" / "run", second, capsys)
    reused = sorted(p.name for p in (tmp_path / "reused").iterdir())
    assert reused == sorted(p.name for p in (tmp_path / "fresh").iterdir())
    assert len(reused) == 6
    for name in reused:
        assert (tmp_path / "reused" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
