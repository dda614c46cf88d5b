"""Static SVG figures and CSV tables for every computed artifact.

Each figure is one function, `<figure>_svg(<data>, title, meta)`, that
takes its data as named parameters and returns the SVG text; each table is
one `<table>_csv` function.  The renderer is deliberately dependency-free:
identical inputs must give byte-identical SVG, which rules out plotting
libraries that embed timestamps or hashed ids.  Figures validate their data
shape before any output is produced.

Numbers are formatted a whole array at a time.  A figure scales each series
as one array (`_Scale` applies the scalar formula elementwise, so each
coordinate has the same bits) and writes all of a series' circles, or all
of a panel's polylines (their shared x coordinates formatted once), with
one `%`-template filled from the array's values: `'%.2f' % x` is
`f"{x:.2f}"`.  The ICE, SHAP and importance tables write their rows the
same way, one template per run of rows, with each text cell (feature name,
curve kind) quoted once by `csv.writer`'s rules and row ids, which are
integers, written as `str` writes them.  So the output is the text that
formatting one number at a time gives (`tests/reference_report.py`).

The ICE table and the ICE panel figure take their parts as (feature name,
kind, grid, curves) tuples, the arrays of `explain.ice_curves`, and the
kind is "raw", "centered" or "derivative".  A panel's PDP is its curves'
column mean, and a centered panel marks the anchor, grid point 0.  The
other tables take the results as their computing functions return them:
`metrics.evaluate_predictions` dicts, a `tuning.grid_search` dict, the
`tuning.learning_curve` arrays and `data.group_summary` (values, table)
pairs.
"""

import csv
import io
import json
import math
from itertools import chain

import numpy as np

from .artifacts import csv_meta_line
from .errors import DataValidationError, NumericError

# One place for every cosmetic constant.
COLOR_AXIS = "#333333"
COLOR_GRID = "#dddddd"
COLOR_POINT = "#1f77b4"
COLOR_ACCENT = "#d62728"
COLOR_PDP = "#ff7f0e"
COLOR_CURVE = "#7f9fbf"
COLOR_LOW = (31, 119, 180)  # beeswarm low feature value
COLOR_HIGH = (214, 39, 40)  # beeswarm high feature value
FONT = "font-family=\"Helvetica,Arial,sans-serif\""


def _esc(text: str) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _fmt(x: float) -> str:
    return f"{float(x):.2f}"


def _label(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return f"{x:.4g}"


def _ticks(lo: float, hi: float, target: int = 5):
    if hi <= lo:
        lo, hi = lo - 0.5, hi + 0.5
    raw = (hi - lo) / max(target, 1)
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * magnitude
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(value) < 1e-12 else value)
        value += step
    return ticks


class _Scale:
    def __init__(self, lo, hi, pixel_lo, pixel_hi, figure):
        if hi <= lo:
            lo, hi = lo - 0.5, hi + 0.5
        self.lo, self.hi = float(lo), float(hi)
        if not math.isfinite(self.hi - self.lo):
            raise NumericError(f"figure {figure!r}: an axis from {lo} to {hi} overflows float64")
        self.pixel_lo, self.pixel_hi = float(pixel_lo), float(pixel_hi)

    def __call__(self, x):
        t = (float(x) - self.lo) / (self.hi - self.lo)
        return self.pixel_lo + t * (self.pixel_hi - self.pixel_lo)

    def array(self, xs):
        """`self(x)` of every value of `xs`, as one array: the same operations,
        so the same bits."""
        t = (np.asarray(xs, dtype=np.float64) - self.lo) / (self.hi - self.lo)
        return self.pixel_lo + t * (self.pixel_hi - self.pixel_lo)


class _Canvas:
    def __init__(self, width: int, height: int, title: str, meta: str = ""):
        self.width, self.height = width, height
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">',
        ]
        if meta:
            self.parts.append(f"<desc>{_esc(meta)}</desc>")
        self.parts.append(f'<rect width="{width}" height="{height}" fill="#ffffff"/>')
        self.text(width / 2, 24, title, size=16, anchor="middle", weight="bold")

    def line(self, x1, y1, x2, y2, color=COLOR_AXIS, width=1.0, dash=""):
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" stroke-width="{width}"{extra}/>'
        )

    def rect(self, x, y, w, h, fill, stroke="none"):
        self.parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" '
            f'fill="{fill}" stroke="{stroke}"/>'
        )

    def _repeat(self, element, count, values):
        # `count` copies of the %-template `element`, one per line, filled
        # from `values` in order; the template's fixed text holds no "%"
        if count:
            self.parts.append("\n".join([element] * count) % tuple(values))

    def circles(self, xs, ys, r, fill, opacity=None):
        """One circle at each (x, y); `fill` is a color, or (r, g, b) rows, one per point."""
        xs, ys = np.broadcast_arrays(np.asarray(xs, dtype=np.float64),
                                     np.asarray(ys, dtype=np.float64))
        extra = f' fill-opacity="{opacity}"' if opacity is not None else ""
        if isinstance(fill, str):
            element = f'<circle cx="%.2f" cy="%.2f" r="{_fmt(r)}" fill="{fill}"{extra}/>'
            values = np.stack((xs, ys), axis=-1).ravel().tolist()
        else:
            element = f'<circle cx="%.2f" cy="%.2f" r="{_fmt(r)}" fill="#%02x%02x%02x"{extra}/>'
            rgb = np.transpose(fill).tolist()
            values = chain.from_iterable(zip(xs.tolist(), ys.tolist(), *rgb))
        self._repeat(element, xs.size, values)

    def polylines(self, xs, ys, color, width=1.5, opacity=None):
        """One polyline through (xs, row) for each row of `ys`, a 1-d or 2-d array.

        The rows share their x coordinates, so each x is formatted once.
        """
        ys = np.atleast_2d(ys)
        points = " ".join([f"{x:.2f},%.2f" for x in np.asarray(xs, dtype=np.float64).tolist()])
        extra = f' stroke-opacity="{opacity}"' if opacity is not None else ""
        element = (f'<polyline points="{points}" fill="none" stroke="{color}" '
                   f'stroke-width="{width}"{extra}/>')
        self._repeat(element, ys.shape[0], ys.ravel().tolist())

    def text(self, x, y, content, size=11, anchor="start", weight="normal", angle=None, color="#000000"):
        transform = (
            f' transform="rotate({angle} {_fmt(x)} {_fmt(y)})"' if angle is not None else ""
        )
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" {FONT} '
            f'text-anchor="{anchor}" font-weight="{weight}" fill="{color}"{transform}>'
            f"{_esc(content)}</text>"
        )

    def svg(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _axes(canvas, box, x_scale, y_scale, x_label, y_label):
    left, top, right, bottom = box
    canvas.line(left, bottom, right, bottom)
    canvas.line(left, top, left, bottom)
    for tick in _ticks(x_scale.lo, x_scale.hi):
        px = x_scale(tick)
        canvas.line(px, bottom, px, bottom + 4)
        canvas.text(px, bottom + 16, _label(tick), size=10, anchor="middle")
    for tick in _ticks(y_scale.lo, y_scale.hi):
        py = y_scale(tick)
        canvas.line(left - 4, py, left, py)
        canvas.line(left, py, right, py, color=COLOR_GRID, width=0.5)
        canvas.text(left - 7, py + 3.5, _label(tick), size=10, anchor="end")
    canvas.text((left + right) / 2, bottom + 34, x_label, size=12, anchor="middle")
    canvas.text(left - 44, (top + bottom) / 2, y_label, size=12, anchor="middle", angle=-90)


def _as_array(values, kind, name, min_len=1):
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < min_len:
        raise DataValidationError(f"{kind}: {name!r} needs at least {min_len} values")
    return arr


def _rgb(low, high, t):
    """Integer (r, g, b) of `low` blended toward `high` by each fraction of `t`
    (a trailing axis of 3), rounded half to even as `round` does."""
    low = np.asarray(low)
    return np.rint(low + (np.asarray(high) - low) * np.asarray(t)[..., None]).astype(np.int64)


def _blend(low, high, t):
    return "#%02x%02x%02x" % tuple(_rgb(low, high, t).tolist())


def _heat_color(value: float) -> str:
    # -1 blue, 0 white, +1 red
    v = max(-1.0, min(1.0, value))
    if v >= 0:
        return _blend((255, 255, 255), COLOR_HIGH, v)
    return _blend((255, 255, 255), COLOR_LOW, -v)


# --- figures: one function per figure, data as named parameters -------------

def correlation_heatmap_svg(names, matrix, title, meta=""):
    """The m x m correlation `matrix` as colored cells, rows and columns named."""
    matrix = np.asarray(matrix, dtype=np.float64)
    m = len(names)
    if matrix.shape != (m, m):
        raise DataValidationError(f"correlation matrix is {matrix.shape}, expected ({m}, {m})")
    cell = 42 if m <= 12 else 30
    left, top = 170, 170
    width, height = left + cell * m + 60, top + cell * m + 40
    canvas = _Canvas(width, height, title, meta)
    for i in range(m):
        for j in range(m):
            x = left + j * cell
            y = top + i * cell
            canvas.rect(x, y, cell, cell, _heat_color(matrix[i, j]), stroke="#ffffff")
            canvas.text(
                x + cell / 2, y + cell / 2 + 3, f"{matrix[i, j]:.2f}",
                size=8, anchor="middle",
                color="#000000" if abs(matrix[i, j]) < 0.6 else "#ffffff",
            )
    for i, name in enumerate(names):
        canvas.text(left - 6, top + i * cell + cell / 2 + 3, name, size=9, anchor="end")
        canvas.text(
            left + i * cell + cell / 2, top - 6, name,
            size=9, anchor="start", angle=-60,
        )
    return canvas.svg()


def group_boxplot_svg(feature, groups, title, meta=""):
    """Premium boxplots per value of `feature`; `groups` are (value, premiums) pairs."""
    if not groups:
        raise DataValidationError("group_boxplot: no groups")
    width, height = 520, 420
    box = (70, 50, width - 30, height - 70)
    all_values = np.concatenate([_as_array(values, "group_boxplot", "values")
                                 for _, values in groups])
    y_scale = _Scale(all_values.min(), all_values.max(), box[3], box[1], title)
    canvas = _Canvas(width, height, title, meta)
    slot = (box[2] - box[0]) / len(groups)
    for g_index, (value, group_values) in enumerate(groups):
        values = np.sort(np.asarray(group_values, dtype=np.float64))
        q1, median, q3 = np.percentile(values, [25, 50, 75], method="linear")
        iqr = q3 - q1
        in_lo = values[values >= q1 - 1.5 * iqr]
        in_hi = values[values <= q3 + 1.5 * iqr]
        whisker_lo = in_lo[0] if in_lo.size else q1
        whisker_hi = in_hi[-1] if in_hi.size else q3
        center = box[0] + slot * (g_index + 0.5)
        half = min(30.0, slot * 0.3)
        canvas.line(center, y_scale(whisker_lo), center, y_scale(q1))
        canvas.line(center, y_scale(q3), center, y_scale(whisker_hi))
        canvas.line(center - half / 2, y_scale(whisker_lo), center + half / 2, y_scale(whisker_lo))
        canvas.line(center - half / 2, y_scale(whisker_hi), center + half / 2, y_scale(whisker_hi))
        canvas.rect(center - half, y_scale(q3), 2 * half, y_scale(q1) - y_scale(q3),
                    fill="#aec7e8", stroke=COLOR_AXIS)
        canvas.line(center - half, y_scale(median), center + half, y_scale(median),
                    color=COLOR_ACCENT, width=2)
        outliers = values[(values < whisker_lo) | (values > whisker_hi)]
        canvas.circles(center, y_scale.array(outliers), 2.2, COLOR_POINT, opacity=0.7)
        canvas.text(center, box[3] + 16, _label(float(value)), size=10, anchor="middle")
    canvas.line(box[0], box[3], box[2], box[3])
    canvas.line(box[0], box[1], box[0], box[3])
    for tick in _ticks(y_scale.lo, y_scale.hi):
        canvas.text(box[0] - 7, y_scale(tick) + 3.5, _label(tick), size=10, anchor="end")
        canvas.line(box[0] - 4, y_scale(tick), box[0], y_scale(tick))
    canvas.text((box[0] + box[2]) / 2, box[3] + 34, feature, size=12, anchor="middle")
    canvas.text(box[0] - 44, (box[1] + box[3]) / 2, "premium", size=12,
                anchor="middle", angle=-90)
    return canvas.svg()


def learning_curve_svg(n_rows, train, val, title, meta=""):
    """Mean train and validation R^2 against training rows."""
    n_rows = _as_array(n_rows, "learning_curve", "n_rows", 2)
    train = _as_array(train, "learning_curve", "train", 2)
    val = _as_array(val, "learning_curve", "val", 2)
    if not n_rows.size == train.size == val.size:
        raise DataValidationError("learning_curve: series lengths differ")
    width, height = 520, 380
    box = (70, 50, width - 30, height - 70)
    y_all = np.concatenate([train, val])
    x_scale = _Scale(n_rows.min(), n_rows.max(), box[0], box[2], title)
    y_scale = _Scale(y_all.min(), min(1.05, y_all.max() + 0.05), box[3], box[1], title)
    canvas = _Canvas(width, height, title, meta)
    _axes(canvas, box, x_scale, y_scale, "training rows", "R^2")
    xs, train_ys, val_ys = x_scale.array(n_rows), y_scale.array(train), y_scale.array(val)
    canvas.polylines(xs, train_ys, COLOR_ACCENT, 2)
    canvas.polylines(xs, val_ys, COLOR_POINT, 2)
    canvas.circles(xs, train_ys, 3, COLOR_ACCENT)
    canvas.circles(xs, val_ys, 3, COLOR_POINT)
    canvas.rect(box[2] - 150, box[1] + 6, 12, 12, COLOR_ACCENT)
    canvas.text(box[2] - 132, box[1] + 16, "training score", size=10)
    canvas.rect(box[2] - 150, box[1] + 24, 12, 12, COLOR_POINT)
    canvas.text(box[2] - 132, box[1] + 34, "validation score", size=10)
    return canvas.svg()


def _series_pair(kind, names, xs, ys, min_len):
    xs = _as_array(xs, kind, names[0], min_len)
    ys = _as_array(ys, kind, names[1], min_len)
    if xs.size != ys.size:
        raise DataValidationError(f"{kind}: series lengths differ")
    return xs, ys


def _scatter_svg(xs, ys, title, x_label, y_label, meta, identity=False, zero_line=False):
    width, height = 480, 420
    box = (70, 50, width - 30, height - 70)
    lo, hi = min(xs.min(), ys.min()), max(xs.max(), ys.max())
    x_scale = _Scale(*((lo, hi) if identity else (xs.min(), xs.max())), box[0], box[2], title)
    y_scale = _Scale(*((lo, hi) if identity else (ys.min(), ys.max())), box[3], box[1], title)
    canvas = _Canvas(width, height, title, meta)
    _axes(canvas, box, x_scale, y_scale, x_label, y_label)
    if identity:
        canvas.line(x_scale(lo), y_scale(lo), x_scale(hi), y_scale(hi),
                    color=COLOR_ACCENT, width=1.5, dash="5,3")
    if zero_line:
        canvas.line(x_scale(x_scale.lo), y_scale(0), x_scale(x_scale.hi), y_scale(0),
                    color=COLOR_ACCENT, width=1.5, dash="5,3")
    canvas.circles(x_scale.array(xs), y_scale.array(ys), 2.5, COLOR_POINT, opacity=0.6)
    return canvas.svg()


def residual_scatter_svg(predicted, residuals, title, meta=""):
    """Residuals against predictions, with the zero line."""
    xs, ys = _series_pair("residual_scatter", ("predicted", "residuals"), predicted, residuals, 2)
    return _scatter_svg(xs, ys, title, "predicted premium", "residual", meta, zero_line=True)


def qq_svg(theoretical, sample, title, meta=""):
    """Sample quantiles against normal quantiles, with the identity line."""
    xs, ys = _series_pair("qq", ("theoretical", "sample"), theoretical, sample, 3)
    return _scatter_svg(xs, ys, title, "normal quantile", "standardized residual", meta,
                        identity=True)


def prediction_error_svg(actual, predicted, title, meta=""):
    """Predictions against actual premiums, with the identity line."""
    xs, ys = _series_pair("prediction_error", ("actual", "predicted"), actual, predicted, 2)
    return _scatter_svg(xs, ys, title, "actual premium", "predicted premium", meta,
                        identity=True)


def beeswarm_svg(names, phi, colors, title, meta=""):
    """One row of attributions per feature: `phi` and its `colors` in [0, 1]
    are (rows x features) arrays, column j the points of names[j]."""
    phi = np.asarray(phi, dtype=np.float64)
    colors = np.asarray(colors, dtype=np.float64)
    if not names or phi.ndim != 2 or len(names) != phi.shape[1]:
        raise DataValidationError("beeswarm: names and point groups must align")
    if colors.shape != phi.shape:
        raise DataValidationError("beeswarm: each attribution needs one color")
    if phi.size == 0:
        raise DataValidationError("beeswarm: no attribution points")
    band = 40
    width = 640
    left, top = 170, 50
    bottom = top + band * len(names)
    height = bottom + 70
    n = phi.shape[0]
    phi, colors = phi.T.ravel(), colors.T.ravel()  # feature by feature
    limit = max(abs(phi.min()), abs(phi.max()), 1e-12)
    x_scale = _Scale(-limit, limit, left, width - 90, title)
    # deterministic vertical stacking: points sharing an x-bin of their
    # feature's row fan out, taken by (phi, color, index); x grows with phi,
    # so a bin's points are one run, and a point's level is its place in it.
    # `row` is sorted, so the sort, first by row, leaves it as it is.
    row = np.repeat(np.arange(len(names)), n)
    order = np.lexsort((colors, phi, row))
    xs = x_scale.array(phi[order])
    bins = (xs - left) // 5
    starts = np.ones(bins.size, dtype=bool)
    starts[1:] = (bins[1:] != bins[:-1]) | (row[1:] != row[:-1])
    position = np.arange(bins.size)
    level = position - np.maximum.accumulate(np.where(starts, position, 0))
    step = (level + 1) // 2 * 3.2
    offset = np.clip(np.where(level % 2 == 1, step, -step), -band / 2 + 4, band / 2 - 4)
    ys = top + band * (row + 0.5) + offset
    rgb = _rgb(COLOR_LOW, COLOR_HIGH, colors[order])
    canvas = _Canvas(width, height, title, meta)
    canvas.line(x_scale(0), top, x_scale(0), bottom, color=COLOR_GRID, width=1)
    for index, name in enumerate(names):
        center = top + band * (index + 0.5)
        canvas.text(left - 8, center + 3.5, name, size=10, anchor="end")
        canvas.line(left, top + band * (index + 1), width - 90, top + band * (index + 1),
                    color=COLOR_GRID, width=0.5)
        points = slice(index * n, (index + 1) * n)
        canvas.circles(xs[points], ys[points], 2.2, rgb[points], opacity=0.8)
    canvas.line(left, bottom, width - 90, bottom)
    for tick in _ticks(-limit, limit):
        canvas.line(x_scale(tick), bottom, x_scale(tick), bottom + 4)
        canvas.text(x_scale(tick), bottom + 16, _label(tick), size=10, anchor="middle")
    canvas.text((left + width - 90) / 2, bottom + 34,
                "attribution (premium units)", size=12, anchor="middle")
    # color legend
    for i, (r, g, b) in enumerate(_rgb(COLOR_HIGH, COLOR_LOW, np.arange(40) / 39).tolist()):
        canvas.rect(width - 60, top + i * 3, 10, 3, f"#{r:02x}{g:02x}{b:02x}")
    canvas.text(width - 44, top + 8, "high", size=9)
    canvas.text(width - 44, top + 120, "low", size=9)
    return canvas.svg()


def importance_bar_svg(names, totals, title, meta=""):
    """One bar of summed |attribution| per feature, in the given order."""
    totals = _as_array(totals, "importance_bar", "totals")
    if len(names) != totals.size:
        raise DataValidationError("importance_bar: names and totals must align")
    band = 34
    width = 560
    left, top = 170, 50
    bottom = top + band * len(names)
    height = bottom + 70
    x_scale = _Scale(0, totals.max() if totals.max() > 0 else 1.0, left, width - 40, title)
    canvas = _Canvas(width, height, title, meta)
    for row, (name, total) in enumerate(zip(names, totals)):
        y = top + band * row + 6
        canvas.text(left - 8, y + band / 2, name, size=10, anchor="end")
        canvas.rect(left, y, x_scale(total) - left, band - 12, COLOR_POINT)
        canvas.text(x_scale(total) + 5, y + band / 2, f"{total:.1f}", size=9)
    canvas.line(left, bottom, width - 40, bottom)
    for tick in _ticks(0, x_scale.hi):
        canvas.line(x_scale(tick), bottom, x_scale(tick), bottom + 4)
        canvas.text(x_scale(tick), bottom + 16, _label(tick), size=10, anchor="middle")
    canvas.text((left + width - 40) / 2, bottom + 34,
                "sum of |attribution|", size=12, anchor="middle")
    return canvas.svg()


def ice_panel_svg(panels, title, meta=""):
    """One panel per (feature name, kind, grid, curves): its curves, its PDP
    (their mean) and, for kind "centered", the anchor at grid point 0."""
    if not panels:
        raise DataValidationError("ice_panel: no panels")
    columns = min(3, len(panels))
    rows = (len(panels) + columns - 1) // columns
    panel_w, panel_h = 240, 200
    margin = 40
    width = margin + columns * (panel_w + 20) + 20
    height = 50 + rows * (panel_h + 40)
    canvas = _Canvas(width, height, title, meta)
    for index, (name, kind, grid, curves) in enumerate(panels):
        grid = _as_array(grid, "ice_panel", "grid", 1)
        curves = np.atleast_2d(np.asarray(curves, dtype=np.float64))
        if curves.shape[1] != grid.size:
            raise DataValidationError("ice_panel: curve/grid lengths differ")
        pdp = curves.mean(axis=0)
        px = margin + (index % columns) * (panel_w + 20)
        py = 50 + (index // columns) * (panel_h + 40)
        box = (px + 36, py + 20, px + panel_w, py + panel_h - 26)
        lo = min(curves.min(), pdp.min())
        hi = max(curves.max(), pdp.max())
        x_scale = _Scale(grid.min(), grid.max(), box[0], box[2], title)
        y_scale = _Scale(lo, hi, box[3], box[1], title)
        canvas.text(px + panel_w / 2, py + 12, str(name),
                    size=11, anchor="middle", weight="bold")
        canvas.line(box[0], box[3], box[2], box[3])
        canvas.line(box[0], box[1], box[0], box[3])
        for tick in _ticks(x_scale.lo, x_scale.hi, 4):
            canvas.text(x_scale(tick), box[3] + 12, _label(tick), size=8, anchor="middle")
        for tick in _ticks(y_scale.lo, y_scale.hi, 4):
            canvas.text(box[0] - 3, y_scale(tick) + 2.5, _label(tick), size=8, anchor="end")
        xs = x_scale.array(grid)
        canvas.polylines(xs, y_scale.array(curves), COLOR_CURVE, 0.8, opacity=0.5)
        canvas.polylines(xs, y_scale.array(pdp), COLOR_PDP, 2.5)
        if kind == "centered":
            canvas.circles(xs[0], y_scale(pdp[0]), 3, COLOR_ACCENT)
    return canvas.svg()


# --- CSV tables -------------------------------------------------------------

def _csv_text(header, rows, meta: str) -> str:
    buffer = io.StringIO()
    buffer.write(meta + "\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _cells(texts) -> list:
    """Each of `texts` as `csv.writer` writes it as one cell of a row, with
    "%" doubled for a %-template."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    cells = []
    for text in texts:
        writer.writerow((text, ""))
        cells.append(buffer.getvalue()[:-2].replace("%", "%%"))
        buffer.seek(0)
        buffer.truncate()
    return cells


def summary_stats_csv(names, table, *, seed=None) -> str:
    """One row per column name: its row of `data.summary_statistics`' table."""
    rows = [[name] + [f"{v:.2f}" for v in values] for name, values in zip(names, table)]
    return _csv_text(
        ["Feature", "Mean", "Std", "Min", "Q1", "Median", "Q3", "Max"],
        rows,
        csv_meta_line(seed=seed, config={"table": "summary_stats"}),
    )


def metrics_table_csv(reports, *, seed=None) -> str:
    """Test-set metrics, one `metrics.evaluate_predictions` dict per row; R^2
    and MAPE in percent."""
    if not reports:
        raise DataValidationError("no models to tabulate")
    rows = [
        [r["model"], f"{100.0 * r['r_squared']:.3f}", f"{r['mae']:.3f}", f"{r['rmse']:.3f}",
         f"{r['mape']:.3f}"]
        for r in reports
    ]
    return _csv_text(
        ["Model", "R2_pct", "MAE", "RMSE", "MAPE_pct"],
        rows,
        csv_meta_line(seed=seed, config={"table": "test_metrics"}),
    )


def cv_table_csv(entries, *, seed=None) -> str:
    """Model training / CV overview: one row per model, R^2 in percent."""
    if not entries:
        raise DataValidationError("no models to tabulate")
    rows = [
        [
            e["model"],
            f"{100.0 * e['train_r2']:.3f}",
            f"{100.0 * e['cv_r2']:.3f}",
            json.dumps(e["best_params"], sort_keys=True),
        ]
        for e in entries
    ]
    return _csv_text(
        ["Model", "TrainR2_pct", "CvR2_pct", "BestParams"],
        rows,
        csv_meta_line(seed=seed, config={"table": "cv_overview"}),
    )


def cv_cells_csv(result, *, seed=None) -> str:
    """Every grid cell of a `tuning.grid_search` result with its per-fold
    scores, mean, and rank."""
    header = (["Rank", "Params"] + [f"Fold{i + 1}R2_pct" for i in range(result["k"])]
              + ["MeanR2_pct"])
    rows = []
    for cell in sorted(result["cells"], key=lambda c: c["rank"]):
        rows.append(
            [cell["rank"], json.dumps(cell["params"], sort_keys=True)]
            + [f"{100.0 * s:.3f}" for s in cell["fold_scores"]]
            + [f"{100.0 * cell['mean_score']:.3f}"]
        )
    return _csv_text(header, rows, csv_meta_line(seed=seed, config={"table": "cv_cells", "variant": result["variant"]}))


def improvement_csv(entries, *, seed=None) -> str:
    """Train, CV and test R^2 in percent per model, and the test - CV difference.

    The published increment column does not reproduce from its own inputs;
    we report the plain difference in percentage points instead.
    """
    if not entries:
        raise DataValidationError("no models to tabulate")
    body = [
        [e["model"], f"{100.0 * e['train_r2']:.3f}", f"{100.0 * e['cv_r2']:.3f}",
         f"{100.0 * e['test_r2']:.3f}", f"{100.0 * (e['test_r2'] - e['cv_r2']):.3f}"]
        for e in entries
    ]
    return _csv_text(
        ["Model", "TrainR2_pct", "CvR2_pct", "TestR2_pct", "ImprovementPoints"],
        body,
        csv_meta_line(seed=seed, config={"table": "improvement"}),
    )


def learning_curve_csv(fractions, n_rows, train, val, *, seed=None) -> str:
    """One row per fraction: its mean training rows and mean train and validation R^2."""
    rows = [
        [f"{f:.3f}", f"{n:.1f}", f"{t:.6f}", f"{v:.6f}"]
        for f, n, t, v in zip(fractions, n_rows, train, val)
    ]
    return _csv_text(
        ["Fraction", "TrainRows", "TrainR2", "ValR2"],
        rows,
        csv_meta_line(seed=seed, config={"table": "learning_curve"}),
    )


_GROUP_HEADER = ["Feature", "Value", "Count", "MeanPremium", "Q1", "Median", "Q3", "Min", "Max"]


def group_summary_all_csv(parts, *, seed=None) -> str:
    """One table for every grouping feature: parts are (feature, values, table)
    triples, a `data.group_summary` result after its feature's name."""
    rows = []
    for feature, values, table in parts:
        rows.extend([feature, _label(value), int(count)] + [f"{v:.2f}" for v in stats]
                    for value, (count, *stats) in zip(values.tolist(), table.tolist()))
    return _csv_text(
        _GROUP_HEADER,
        rows,
        csv_meta_line(seed=seed, config={"table": "group_summary"}),
    )


def shap_values_csv(names, base_value, phi, row_ids, *, seed=None) -> str:
    """One row per row of `phi`: its integer row id, its φ and the base value."""
    n = phi.shape[0]
    header = ["RowId"] + list(names) + ["BaseValue"]
    cells = ",%.6f" * phi.shape[1] + f",{base_value:.6f}\n"
    template = "".join(f"{row_ids[i]}{cells}" for i in range(n))
    return (_csv_text(header, [], csv_meta_line(seed=seed, config={"table": "shap_values"}))
            + template % tuple(phi.ravel().tolist()))


def importance_csv(names, totals, order, *, seed=None) -> str:
    """One row per feature in `order`, as `explain.importance` ranks them."""
    rows = [[names[j], f"{totals[j]:.6f}", rank + 1] for rank, j in enumerate(order)]
    return _csv_text(["Feature", "TotalAbsAttribution", "Rank"], rows,
                     csv_meta_line(seed=seed, config={"table": "importance"}))


def ice_long_csv(parts, row_ids, *, seed=None) -> str:
    """Long-format ICE curves: one line per (part, row, grid point).

    Each part is (feature name, kind, grid, curves), kind written in the
    Variant column.  `row_ids` are integers, one per curve; a part writes
    the curves that have an id.  Each part is one %-template: a line per
    (row, grid point) whose last cell takes the curve's value there.
    """
    body = []
    for name, kind, grid, curves in parts:
        lead = ",".join(_cells((name, kind))) + ","
        heads = [f"{lead}{row_id}" for row_id, _ in zip(row_ids, curves)]
        # head + head.join(tails) puts the row's head before each grid point's tail
        tails = [f",{value:.6f},%.6f\n" for value in grid.tolist()]
        if tails:
            template = "".join(head + head.join(tails) for head in heads)
            body.append(template % tuple(curves[:len(heads)].ravel().tolist()))
    return _csv_text(
        ["Feature", "Variant", "RowId", "GridValue", "Prediction"],
        [],
        csv_meta_line(seed=seed, config={"table": "ice_curves"}),
    ) + "".join(body)

