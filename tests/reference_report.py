"""The report writers as they formatted one number at a time: the oracle for
`premex.report`'s whole-array writers.

Each function here is `premex.report`'s function of the same name as it was
before the writers formatted whole arrays: every coordinate goes through
the scalar scale and `_fmt`, every circle and polyline is one f-string,
every CSV row goes through `csv.writer`, and the beeswarm orders its points
with `sorted` and blends each color on its own.  `tests/test_report.py`
asserts that both give the same text.  Only the helpers these writers share
with the rest of the module, and that the change left alone, are imported.
"""

import numpy as np

from premex.artifacts import csv_meta_line
from premex.errors import DataValidationError
from premex.report import (
    COLOR_ACCENT,
    COLOR_AXIS,
    COLOR_CURVE,
    COLOR_GRID,
    COLOR_HIGH,
    COLOR_LOW,
    COLOR_PDP,
    COLOR_POINT,
    _as_array,
    _axes,
    _Canvas,
    _csv_text,
    _fmt,
    _label,
    _series_pair,
    _ticks,
)


class _Scale:
    def __init__(self, lo, hi, pixel_lo, pixel_hi):
        if hi <= lo:
            lo, hi = lo - 0.5, hi + 0.5
        self.lo, self.hi = float(lo), float(hi)
        self.pixel_lo, self.pixel_hi = float(pixel_lo), float(pixel_hi)

    def __call__(self, x):
        t = (float(x) - self.lo) / (self.hi - self.lo)
        return self.pixel_lo + t * (self.pixel_hi - self.pixel_lo)


def _circle(canvas, x, y, r, fill, opacity=None):
    extra = f' fill-opacity="{opacity}"' if opacity is not None else ""
    canvas.parts.append(
        f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" fill="{fill}"{extra}/>'
    )


def _polyline(canvas, xs, ys, color, width=1.5, opacity=None):
    points = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, ys))
    extra = f' stroke-opacity="{opacity}"' if opacity is not None else ""
    canvas.parts.append(
        f'<polyline points="{points}" fill="none" stroke="{color}" '
        f'stroke-width="{width}"{extra}/>'
    )


def _blend(low, high, t):
    r = round(low[0] + (high[0] - low[0]) * t)
    g = round(low[1] + (high[1] - low[1]) * t)
    b = round(low[2] + (high[2] - low[2]) * t)
    return f"#{r:02x}{g:02x}{b:02x}"


def group_boxplot_svg(feature, groups, title, meta=""):
    if not groups:
        raise DataValidationError("group_boxplot: no groups")
    width, height = 520, 420
    box = (70, 50, width - 30, height - 70)
    all_values = np.concatenate([_as_array(values, "group_boxplot", "values")
                                 for _, values in groups])
    y_scale = _Scale(all_values.min(), all_values.max(), box[3], box[1])
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
        for outlier in values[(values < whisker_lo) | (values > whisker_hi)]:
            _circle(canvas, center, y_scale(outlier), 2.2, COLOR_POINT, opacity=0.7)
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
    n_rows = _as_array(n_rows, "learning_curve", "n_rows", 2)
    train = _as_array(train, "learning_curve", "train", 2)
    val = _as_array(val, "learning_curve", "val", 2)
    if not n_rows.size == train.size == val.size:
        raise DataValidationError("learning_curve: series lengths differ")
    width, height = 520, 380
    box = (70, 50, width - 30, height - 70)
    y_all = np.concatenate([train, val])
    x_scale = _Scale(n_rows.min(), n_rows.max(), box[0], box[2])
    y_scale = _Scale(y_all.min(), min(1.05, y_all.max() + 0.05), box[3], box[1])
    canvas = _Canvas(width, height, title, meta)
    _axes(canvas, box, x_scale, y_scale, "training rows", "R^2")
    _polyline(canvas, [x_scale(x) for x in n_rows], [y_scale(y) for y in train], COLOR_ACCENT, 2)
    _polyline(canvas, [x_scale(x) for x in n_rows], [y_scale(y) for y in val], COLOR_POINT, 2)
    for x, y in zip(n_rows, train):
        _circle(canvas, x_scale(x), y_scale(y), 3, COLOR_ACCENT)
    for x, y in zip(n_rows, val):
        _circle(canvas, x_scale(x), y_scale(y), 3, COLOR_POINT)
    canvas.rect(box[2] - 150, box[1] + 6, 12, 12, COLOR_ACCENT)
    canvas.text(box[2] - 132, box[1] + 16, "training score", size=10)
    canvas.rect(box[2] - 150, box[1] + 24, 12, 12, COLOR_POINT)
    canvas.text(box[2] - 132, box[1] + 34, "validation score", size=10)
    return canvas.svg()


def _scatter_svg(xs, ys, title, x_label, y_label, meta, identity=False, zero_line=False):
    width, height = 480, 420
    box = (70, 50, width - 30, height - 70)
    lo = min(xs.min(), ys.min()) if identity else None
    hi = max(xs.max(), ys.max()) if identity else None
    x_scale = _Scale(lo if identity else xs.min(), hi if identity else xs.max(), box[0], box[2])
    y_scale = _Scale(lo if identity else ys.min(), hi if identity else ys.max(), box[3], box[1])
    canvas = _Canvas(width, height, title, meta)
    _axes(canvas, box, x_scale, y_scale, x_label, y_label)
    if identity:
        canvas.line(x_scale(lo), y_scale(lo), x_scale(hi), y_scale(hi),
                    color=COLOR_ACCENT, width=1.5, dash="5,3")
    if zero_line:
        canvas.line(x_scale(x_scale.lo), y_scale(0), x_scale(x_scale.hi), y_scale(0),
                    color=COLOR_ACCENT, width=1.5, dash="5,3")
    for x, y in zip(xs, ys):
        _circle(canvas, x_scale(x), y_scale(y), 2.5, COLOR_POINT, opacity=0.6)
    return canvas.svg()


def residual_scatter_svg(predicted, residuals, title, meta=""):
    xs, ys = _series_pair("residual_scatter", ("predicted", "residuals"), predicted, residuals, 2)
    return _scatter_svg(xs, ys, title, "predicted premium", "residual", meta, zero_line=True)


def qq_svg(theoretical, sample, title, meta=""):
    xs, ys = _series_pair("qq", ("theoretical", "sample"), theoretical, sample, 3)
    return _scatter_svg(xs, ys, title, "normal quantile", "standardized residual", meta,
                        identity=True)


def prediction_error_svg(actual, predicted, title, meta=""):
    xs, ys = _series_pair("prediction_error", ("actual", "predicted"), actual, predicted, 2)
    return _scatter_svg(xs, ys, title, "actual premium", "predicted premium", meta,
                        identity=True)


def beeswarm_svg(names, points, title, meta=""):
    if not names or len(names) != len(points):
        raise DataValidationError("beeswarm: names and point groups must align")
    band = 40
    width = 640
    left, top = 170, 50
    bottom = top + band * len(names)
    height = bottom + 70
    all_phi = np.concatenate([np.asarray(p[0], dtype=np.float64) for p in points])
    if all_phi.size == 0:
        raise DataValidationError("beeswarm: no attribution points")
    limit = max(abs(all_phi.min()), abs(all_phi.max()), 1e-12)
    x_scale = _Scale(-limit, limit, left, width - 90)
    canvas = _Canvas(width, height, title, meta)
    canvas.line(x_scale(0), top, x_scale(0), bottom, color=COLOR_GRID, width=1)
    for row, (name, (phi, colors)) in enumerate(zip(names, points)):
        phi = np.asarray(phi, dtype=np.float64)
        colors = np.asarray(colors, dtype=np.float64)
        center = top + band * (row + 0.5)
        canvas.text(left - 8, center + 3.5, name, size=10, anchor="end")
        canvas.line(left, top + band * (row + 1), width - 90, top + band * (row + 1),
                    color=COLOR_GRID, width=0.5)
        order = sorted(range(phi.size), key=lambda i: (phi[i], colors[i], i))
        bins = {}
        for i in order:
            bin_id = int((x_scale(phi[i]) - left) // 5)
            level = bins.get(bin_id, 0)
            bins[bin_id] = level + 1
            step = (level + 1) // 2 * 3.2
            offset = step if level % 2 == 1 else -step
            offset = max(-band / 2 + 4, min(band / 2 - 4, offset))
            _circle(canvas, x_scale(phi[i]), center + offset, 2.2,
                    _blend(COLOR_LOW, COLOR_HIGH, colors[i]), opacity=0.8)
    canvas.line(left, bottom, width - 90, bottom)
    for tick in _ticks(-limit, limit):
        canvas.line(x_scale(tick), bottom, x_scale(tick), bottom + 4)
        canvas.text(x_scale(tick), bottom + 16, _label(tick), size=10, anchor="middle")
    canvas.text((left + width - 90) / 2, bottom + 34,
                "attribution (premium units)", size=12, anchor="middle")
    for i in range(40):
        canvas.rect(width - 60, top + i * 3, 10, 3, _blend(COLOR_HIGH, COLOR_LOW, i / 39))
    canvas.text(width - 44, top + 8, "high", size=9)
    canvas.text(width - 44, top + 120, "low", size=9)
    return canvas.svg()


def ice_panel_svg(panels, title, meta=""):
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
        x_scale = _Scale(grid.min(), grid.max(), box[0], box[2])
        y_scale = _Scale(lo, hi, box[3], box[1])
        canvas.text(px + panel_w / 2, py + 12, str(name),
                    size=11, anchor="middle", weight="bold")
        canvas.line(box[0], box[3], box[2], box[3])
        canvas.line(box[0], box[1], box[0], box[3])
        for tick in _ticks(x_scale.lo, x_scale.hi, 4):
            canvas.text(x_scale(tick), box[3] + 12, _label(tick), size=8, anchor="middle")
        for tick in _ticks(y_scale.lo, y_scale.hi, 4):
            canvas.text(box[0] - 3, y_scale(tick) + 2.5, _label(tick), size=8, anchor="end")
        xs = [x_scale(x) for x in grid]
        for curve in curves:
            _polyline(canvas, xs, [y_scale(v) for v in curve], COLOR_CURVE, 0.8, opacity=0.5)
        _polyline(canvas, xs, [y_scale(v) for v in pdp], COLOR_PDP, 2.5)
        if kind == "centered":
            _circle(canvas, x_scale(grid[0]), y_scale(pdp[0]), 3, COLOR_ACCENT)
    return canvas.svg()


def shap_values_csv(names, base_value, phi, row_ids=None, *, seed=None) -> str:
    n = phi.shape[0]
    if row_ids is None:
        row_ids = list(range(n))
    header = ["RowId"] + list(names) + ["BaseValue"]
    rows = [
        [row_ids[i]] + [f"{v:.6f}" for v in phi[i]] + [f"{base_value:.6f}"]
        for i in range(n)
    ]
    return _csv_text(header, rows, csv_meta_line(seed=seed, config={"table": "shap_values"}))


def importance_csv(names, totals, order, *, seed=None) -> str:
    rows = [[names[j], f"{totals[j]:.6f}", rank + 1] for rank, j in enumerate(order)]
    return _csv_text(
        ["Feature", "TotalAbsAttribution", "Rank"],
        rows,
        csv_meta_line(seed=seed, config={"table": "importance"}),
    )


def ice_long_csv(parts, row_ids=None, *, seed=None) -> str:
    rows = []
    for name, kind, grid, curves in parts:
        curves = curves.tolist()
        ids = row_ids if row_ids is not None else range(len(curves))
        grid = [f"{value:.6f}" for value in grid.tolist()]
        for row_id, curve in zip(ids, curves):
            rows.extend([name, kind, row_id, value, f"{prediction:.6f}"]
                        for value, prediction in zip(grid, curve))
    return _csv_text(
        ["Feature", "Variant", "RowId", "GridValue", "Prediction"],
        rows,
        csv_meta_line(seed=seed, config={"table": "ice_curves"}),
    )
