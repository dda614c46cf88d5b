"""Span tracing of `premex` layers from outside the package.

`Tracer.install()` wraps every public function and public method defined
in the layer modules and rebinds each name where its caller looks it up:
the defining module, every module that imported the name, module-level
dicts and tuples that hold it (e.g. `tuning._VARIANT_SETUP`), and the
class for methods.  Each call records a span (name, start, end, parent).
The benchmark opens one root span per command; a layer's self time is its
spans' durations minus the time their direct child spans cover, and a
command's root span minus its children is `cli.self_s`.

Spans stay in memory; `layer_metrics` reduces them to the per-layer table.
Calls run single-threaded, so child spans of one parent never overlap.

A traced run whose counted functions (`COUNTERS`) were not all found, or
whose counters failed, is reported as incorrect: its counts would read 0
and the time would silently move to the caller.  A change that renames or
removes a counted function updates `COUNTERS` first, in a benchmark change.
"""

import contextlib
import importlib
import inspect
import os
import time

LAYERS = ("data", "tree", "ensemble", "tuning", "metrics", "explain", "report", "artifacts")
# modules whose namespaces may hold references to layer functions
CALLERS = LAYERS + ("cli",)


def _rows(value):
    shape = getattr(value, "shape", None)
    if shape is not None and len(shape) > 0:
        return int(shape[0]) if len(shape) > 1 else 1
    return len(value) if isinstance(value, (list, tuple)) else 1


def _model_trees(model):
    trees = getattr(model, "trees", None)
    if trees is None:
        trees = getattr(model, "stages", None)
    return len(trees) if trees is not None else 0


def _path_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# Counters record the work a call did; they run after its span closes.
# Each returns a dict merged into the span's info.
def _count_fit(args, kwargs, result):
    return {"rows": _rows(args[0]), "tree": result}


def _count_predict(args, kwargs, result):
    return {"rows": _rows(args[1] if len(args) > 1 else kwargs["X"])}


def _count_ensemble_fit(args, kwargs, result):
    return {"trees": _model_trees(result)}


def _count_ensemble_predict(args, kwargs, result):
    return {"rows": _rows(args[1] if len(args) > 1 else kwargs["X"]),
            "trees": _model_trees(args[0])}


def _count_shap(args, kwargs, result):
    return {"rows": _rows(args[1] if len(args) > 1 else kwargs["rows"])}


def _count_save(args, kwargs, result):
    return {"bytes": _path_size(args[1] if len(args) > 1 else kwargs["path"])}


def _count_load(args, kwargs, result):
    return {"bytes": _path_size(args[0] if args else kwargs["path"])}


def _count_write(args, kwargs, result):
    return {"bytes": _path_size(args[0] if args else kwargs["path"])}


COUNTERS = {
    "tree.fit_tree": _count_fit,
    "tree.fit_tree_gradients": _count_fit,
    "tree.RegressionTree.predict_matrix": _count_predict,
    "ensemble.fit_forest": _count_ensemble_fit,
    "ensemble.fit_gbm": _count_ensemble_fit,
    "ensemble.fit_xgb": _count_ensemble_fit,
    "ensemble.ForestModel.predict": _count_ensemble_predict,
    "ensemble.BoostedModel.predict": _count_ensemble_predict,
    "ensemble.save_model": _count_save,
    "ensemble.load_model": _count_load,
    "explain.shap_exact": _count_shap,
    "artifacts.write_text_atomic": _count_write,
}


class Tracer:
    def __init__(self):
        self.names = []  # span -> qualified name, "<layer>.<qualname>"
        self.start = []
        self.end = []
        self.parent = []
        self.info = {}  # span -> counter output
        self._stack = []
        self.active = False
        self.wrapped = set()  # qualified names of the wrapped functions
        self.counter_errors = []  # one entry per counter that raised

    # --- recording -----------------------------------------------------------

    def _open(self, name):
        index = len(self.names)
        self.names.append(name)
        self.start.append(time.perf_counter())
        self.end.append(None)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(index)
        return index

    def _close(self, index):
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name):
        """One command's root span."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, fn, name):
        counter = COUNTERS.get(name)
        tracer = self
        self.wrapped.add(name)

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if counter is not None:
                try:
                    tracer.info[index] = counter(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError) as exc:
                    problem = f"counter of {name} failed: {exc!r}"
                    if problem not in tracer.counter_errors:
                        tracer.counter_errors.append(problem)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    # --- patching ------------------------------------------------------------

    def install(self, package="premex"):
        """Wrap public layer functions and rebind every reference to them.

        Returns a list of problems: counted functions that were not found.
        """
        modules = {}
        for short in CALLERS:
            try:
                modules[short] = importlib.import_module(f"{package}.{short}")
            except ImportError:
                continue  # a layer a later change removed; COUNTERS checks below
        replacements = {}  # id(original) -> wrapper
        for short in LAYERS:
            module = modules.get(short)
            if module is None:
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self.wrap(obj, f"{short}.{attr}")
                    replacements[id(obj)] = (obj, wrapper)
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, f"{short}.{attr}")
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if attr.startswith("__"):
                    continue
                replaced = _replace(value, replacements)
                if replaced is not value:
                    setattr(module, attr, replaced)
        self.active = True
        return [f"counted function {name} not found" for name in COUNTERS
                if name not in self.wrapped]

    def _wrap_methods(self, cls, prefix):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(raw.__func__, f"{prefix}.{attr}")))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(raw, f"{prefix}.{attr}"))

    # --- reduction -----------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the time its direct children cover."""
        durations = [e - s for s, e in zip(self.start, self.end)]
        own = list(durations)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= durations[index]
        return durations, own


def _replace(value, replacements):
    """`value` with wrapped functions swapped in, or `value` itself."""
    entry = replacements.get(id(value))
    if entry is not None and entry[0] is value:
        return entry[1]
    if isinstance(value, dict):
        new = {k: _replace(v, replacements) for k, v in value.items()}
        if any(new[k] is not value[k] for k in value):
            value.update(new)  # same dict object: holders keep seeing it
        return value
    if isinstance(value, tuple):
        new = tuple(_replace(v, replacements) for v in value)
        return new if any(a is not b for a, b in zip(new, value)) else value
    return value


def _node_count(tree):
    count = getattr(tree, "node_count", None)
    return int(count()) if callable(count) else 0


def layer_metrics(tracer, traced_wall_s):
    """The per-layer table of one traced iteration (see BENCHMARK.json).

    Call it with the tracer inactive: it counts nodes with node_count().
    """
    names, parent, info = tracer.names, tracer.parent, tracer.info
    durations, own = tracer.self_times()
    n = len(names)

    def spans(*wanted):
        wanted = set(wanted)
        return [i for i in range(n) if names[i] in wanted]

    def under(i, ancestors):
        """True if span i has an ancestor whose name is in `ancestors`."""
        p = parent[i]
        while p >= 0:
            if names[p] in ancestors:
                return True
            p = parent[p]
        return False

    def inclusive(*wanted):
        """Summed duration of the outermost spans among `wanted`."""
        group = set(wanted)
        return sum(durations[i] for i in spans(*wanted) if not under(i, group))

    def count(key, indices):
        return sum(info.get(i, {}).get(key, 0) for i in indices)

    def per(total, amount, scale):
        return total * scale / amount if amount else 0.0

    layer_self = {layer: 0.0 for layer in LAYERS}
    cli_self = 0.0
    roots = 0
    for i in range(n):
        if parent[i] < 0:
            roots += 1
            cli_self += own[i]
        else:
            layer_self[names[i].split(".", 1)[0]] += own[i]

    fit = spans("tree.fit_tree", "tree.fit_tree_gradients")
    fit_s = inclusive("tree.fit_tree", "tree.fit_tree_gradients")
    predict = spans("tree.RegressionTree.predict_matrix")
    predict_s = inclusive("tree.RegressionTree.predict_matrix")
    ens_fit_names = ("ensemble.fit_forest", "ensemble.fit_gbm", "ensemble.fit_xgb")
    ens_fit = spans(*ens_fit_names)
    ens_pred_names = ("ensemble.ForestModel.predict", "ensemble.BoostedModel.predict")
    ens_pred = spans(*ens_pred_names)
    ens_pred_s = inclusive(*ens_pred_names)
    row_trees = sum(info.get(i, {}).get("rows", 0) * info.get(i, {}).get("trees", 0)
                    for i in ens_pred)
    shap = spans("explain.shap_exact")
    shap_s = inclusive("explain.shap_exact")
    shap_rows = count("rows", shap)
    ice = spans("explain.ice_curves")
    scaler_names = ("data.fit_scaler", "data.apply_scaler")
    csv_names = [name for name in set(names)
                 if name.startswith("report.") and name.endswith("_csv")]
    metrics_names = [name for name in set(names) if name.startswith("metrics.")]
    trees_seen = [info[i]["tree"] for i in fit if "tree" in info.get(i, {})]

    return {
        "tree.fit_calls": len(fit),
        "tree.fit_rows": count("rows", fit),
        "tree.nodes": sum(_node_count(tree) for tree in trees_seen),
        "tree.fit_s": fit_s,
        "tree.fit_ms_per_tree": per(fit_s, len(fit), 1e3),
        "tree.predict_calls": len(predict),
        "tree.predict_s": predict_s,
        "tree.predict_ns_per_row": per(predict_s, count("rows", predict), 1e9),
        "tree.self_s": layer_self["tree"],
        "ensemble.fit_calls": len(ens_fit),
        "ensemble.trees": count("trees", ens_fit),
        "ensemble.fit_s": inclusive(*ens_fit_names),
        "ensemble.fit_self_s": sum(own[i] for i in ens_fit),
        "ensemble.predict_calls": len(ens_pred),
        "ensemble.predict_rows": count("rows", ens_pred),
        "ensemble.predict_s": ens_pred_s,
        "ensemble.predict_ns_per_row_tree": per(ens_pred_s, row_trees, 1e9),
        "ensemble.model_io_s": inclusive("ensemble.save_model", "ensemble.load_model"),
        "ensemble.model_bytes": count("bytes", spans("ensemble.save_model", "ensemble.load_model")),
        "ensemble.self_s": layer_self["ensemble"],
        "tuning.model_fits": len(spans("tuning.fit_variant")),
        "tuning.cv_s": inclusive("tuning.grid_search", "tuning.cross_val_score"),
        "tuning.self_s": layer_self["tuning"],
        "data.ingest_s": inclusive("data.load_csv", "data.derive_features"),
        "data.scaler_calls": len(spans(*scaler_names)),
        "data.scaler_s": inclusive(*scaler_names),
        "data.self_s": layer_self["data"],
        "explain.shap_rows": shap_rows,
        "explain.shap_model_rows": count("rows", [i for i in ens_pred
                                                  if under(i, {"explain.shap_exact"})]),
        "explain.shap_s": shap_s,
        "explain.shap_ms_per_row": per(shap_s, shap_rows, 1e3),
        "explain.shap_self_s": sum(own[i] for i in shap),
        "explain.ice_features": len(ice),
        "explain.ice_predict_calls": len([i for i in ens_pred
                                          if under(i, {"explain.ice_curves"})]),
        "explain.ice_s": inclusive("explain.ice_curves"),
        "explain.self_s": layer_self["explain"],
        "metrics.s": inclusive(*metrics_names),
        "metrics.self_s": layer_self["metrics"],
        "report.render_calls": len(spans("report.render")),
        "report.render_s": inclusive("report.render"),
        "report.csv_s": inclusive(*csv_names),
        "report.self_s": layer_self["report"],
        "artifacts.writes": len(spans("artifacts.write_text_atomic")),
        "artifacts.bytes_written": count("bytes", spans("artifacts.write_text_atomic")),
        "artifacts.write_s": inclusive("artifacts.write_text_atomic"),
        "artifacts.read_s": inclusive("artifacts.read_json_artifact"),
        "artifacts.self_s": layer_self["artifacts"],
        "cli.commands": roots,
        "cli.self_s": cli_self,
        "trace.spans": n,
        "trace.wall_s": traced_wall_s,
    }
