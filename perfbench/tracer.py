"""Span tracer that wraps the public functions of the agq modules from outside.

Nothing in `agq` knows about it.  `Tracer.install()` replaces every public
function and public method (plus `__init__`) defined in the traced modules
with a timing wrapper, and also rebinds every name that another `agq` module
imported by name (`agq.agcode.matmul`, `agq.rrspace.matrix_rank`, ...), so
calls through those aliases are counted too.  `Tracer.uninstall()` puts every
original object back.

A wrapped call is a span.  Spans are aggregated in memory as they close:

* per group (see GROUPS): calls, and inclusive seconds counted only at the
  outermost span of the group, so nested calls are not counted twice;
* per layer (the agq module a function is defined in): self seconds, the
  span time minus the time of its direct child spans, summed over the spans
  of the layer; and inclusive seconds at the outermost span of the layer;
* computed counters, derived from argument shapes and results rather than
  from the clock (see `_HOOKS`).

`derive()` turns these raw stats into the named per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

import numpy as np

LAYERS = ("gf", "linalg", "curve", "rrspace", "agcode", "quantum", "simulator", "cli")

# metric group -> traced keys ("<layer>.<qualname>")
GROUPS = {
    "gf.field_build": ("gf.Field.__init__",),
    "gf.vmul": ("gf.Field.vmul",),
    "gf.vsum": ("gf.Field.vsum",),
    "gf.vaddsub": ("gf.Field.vadd", "gf.Field.vsub", "gf.Field.vneg"),
    "gf.scalar": tuple(f"gf.Field.{op}" for op in ("add", "sub", "neg", "mul", "inv", "div", "pow")),
    "linalg.matmul": ("linalg.matmul",),
    "linalg.rref": ("linalg.rref",),
    "curve.enumerate_points": ("curve.enumerate_points",),
    "rrspace.verified_basis": ("rrspace.verified_basis",),
    "rrspace.evaluation_matrix": ("rrspace.evaluation_matrix",),
    "agcode.build": ("agcode.build_onepoint_code",),
    "agcode.min_distance": ("agcode.min_distance",),
    "agcode.weight_distribution": ("agcode.weight_distribution",),
    "agcode.dual": ("agcode.dual", "agcode.hermitian_dual"),
    "agcode.self_orth": ("agcode.is_hermitian_self_orthogonal", "agcode.is_euclidean_self_orthogonal"),
    "agcode.duality_claim": ("agcode.check_duality_claim",),
    "simulator.transmission": ("simulator.simulate_transmission",),
}
_GROUP_OF = {key: group for group, keys in GROUPS.items() for key in keys}


# -- computed counters: functions of the call's arguments and result.  Only
# `agcode.enumeration_s` uses the clock; it is the denominator of a rate.

def _add(c, name, value):
    c[name] = c.get(name, 0) + value


def _matmul_hook(c, args, kwargs, result, dt):
    m, n = result.shape
    k = np.shape(args[1])[-1]
    _add(c, "linalg.matmul.macs", m * k * n)
    c["linalg.matmul.gather_bytes_max"] = max(c.get("linalg.matmul.gather_bytes_max", 0),
                                              m * k * n * args[0].e * 8)


def _rref_hook(c, args, kwargs, result, dt):
    rows, pivots = len(result[0]), len(result[1])
    _add(c, "linalg.rref.row_ops", rows * pivots)


def _offer_hook(c, args, kwargs, result, dt):
    _add(c, "linalg.row_filter.offers", 1)
    _add(c, "linalg.row_filter.kept", int(result))


def _basis_hook(c, args, kwargs, result, dt):
    _add(c, "rrspace.kept", len(result.monomials))
    _add(c, "rrspace.candidates", len(result.monomials) + len(result.dropped))


def _enumeration_hook(c, args, kwargs, result, dt):
    code = args[0]
    skip_zero = kwargs.get("skip_zero", args[2] if len(args) > 2 else False)
    _add(c, "agcode.codewords", code.field.order ** code.k - int(bool(skip_zero)))


def _min_distance_hook(c, args, kwargs, result, dt):
    _add(c, "agcode.min_distance.exact", int(result.exact))
    if result.method == "exhaustive":
        _add(c, "agcode.enumeration_s", dt)


def _weights_hook(c, args, kwargs, result, dt):
    _add(c, "agcode.enumeration_s", dt)


def _transmission_hook(c, args, kwargs, result, dt):
    _add(c, "simulator.trials", result.trials)


_HOOKS = {
    "linalg.matmul": _matmul_hook,
    "linalg.rref": _rref_hook,
    "linalg.GreedyRowFilter.offer": _offer_hook,
    "rrspace.verified_basis": _basis_hook,
    "agcode.iter_codeword_blocks": _enumeration_hook,
    "agcode.min_distance": _min_distance_hook,
    "agcode.weight_distribution": _weights_hook,
    "simulator.simulate_transmission": _transmission_hook,
}


def empty_stats() -> dict:
    return {"calls": {}, "incl": {}, "layer_self": {}, "layer_incl": {}, "counters": {}}


def merge_stats(a: dict, b: dict) -> dict:
    """Sum two raw stats records (maxima for `*_max` counters)."""
    out = empty_stats()
    for part in out:
        for src in (a[part], b[part]):
            for name, value in src.items():
                if name.endswith("_max"):
                    out[part][name] = max(out[part].get(name, 0), value)
                else:
                    out[part][name] = out[part].get(name, 0) + value
    return out


class Tracer:
    """Wraps the public callables of the agq layers; see the module docstring."""

    def __init__(self):
        self.stats = empty_stats()
        self._stack: list[list[float]] = []  # per open span: seconds of its direct children
        self._group_depth: dict[str, int] = {}
        self._layer_depth: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"agq.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{name}", layer, obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, module.__file__, obj)
        # rebind every module-level name bound to a wrapped function, including
        # the defining module and every module that imported it by name
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "agq" or mod_name.startswith("agq.")):
                continue
            for name, obj in list(vars(module).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._patch(module, name, obj, wrapped[id(obj)])

    def _wrap_methods(self, layer: str, filename: str, cls) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name != "__init__":
                continue
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if kind else raw
            # skip properties and dataclass-generated methods (not in the module source)
            if not inspect.isfunction(fn) or fn.__code__.co_filename != filename:
                continue
            wrapper = self._wrap(f"{layer}.{cls.__name__}.{name}", layer, fn)
            self._patch(cls, name, raw, kind(wrapper) if kind else wrapper)

    def _patch(self, owner, name, original, replacement) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def take(self) -> dict:
        """Return the stats gathered so far and start a fresh record."""
        stats, self.stats = self.stats, empty_stats()
        return stats

    # -- the wrapper -----------------------------------------------------------

    def _wrap(self, key: str, layer: str, fn):
        group = _GROUP_OF.get(key, key)
        hook = _HOOKS.get(key)
        stack = self._stack
        group_depth = self._group_depth
        layer_depth = self._layer_depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls = self.stats["calls"]
            calls[group] = calls.get(group, 0) + 1
            g_outer = group_depth.get(group, 0) == 0
            l_outer = layer_depth.get(layer, 0) == 0
            group_depth[group] = group_depth.get(group, 0) + 1
            layer_depth[layer] = layer_depth.get(layer, 0) + 1
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                group_depth[group] -= 1
                layer_depth[layer] -= 1
                st = self.stats
                st["layer_self"][layer] = st["layer_self"].get(layer, 0.0) + dt - frame[0]
                if g_outer:
                    st["incl"][group] = st["incl"].get(group, 0.0) + dt
                if l_outer:
                    st["layer_incl"][layer] = st["layer_incl"].get(layer, 0.0) + dt
                if stack:
                    stack[-1][0] += dt
            if hook is not None:
                hook(self.stats["counters"], args, kwargs, result, dt)
            return result

        return wrapper


# -- named per-layer metrics --------------------------------------------------

# (name, unit, better); units ending in "-computed" mark values derived from
# argument shapes and code parameters rather than measured.
PER_LAYER = [
    ("gf.field_build.calls", "count", "lower"),
    ("gf.field_build.s", "s", "lower"),
    ("gf.vmul.calls", "count", "lower"),
    ("gf.vmul.s", "s", "lower"),
    ("gf.vsum.calls", "count", "lower"),
    ("gf.vsum.s", "s", "lower"),
    ("gf.vaddsub.calls", "count", "lower"),
    ("gf.vaddsub.s", "s", "lower"),
    ("gf.scalar.calls", "count", "lower"),
    ("gf.scalar.s", "s", "lower"),
    ("gf.self_s", "s", "lower"),
    ("linalg.matmul.calls", "count", "lower"),
    ("linalg.matmul.s", "s", "lower"),
    ("linalg.matmul.macs", "count-computed", "lower"),
    ("linalg.matmul.gather_bytes_max", "bytes-computed", "lower"),
    ("linalg.rref.calls", "count", "lower"),
    ("linalg.rref.s", "s", "lower"),
    ("linalg.rref.row_ops", "count-computed", "lower"),
    ("linalg.row_filter.offers", "count", "lower"),
    ("linalg.row_filter.kept_ratio", "ratio", "higher"),
    ("linalg.self_s", "s", "lower"),
    ("curve.enumerate_points.calls", "count", "lower"),
    ("curve.enumerate_points.s", "s", "lower"),
    ("rrspace.verified_basis.calls", "count", "lower"),
    ("rrspace.verified_basis.s", "s", "lower"),
    ("rrspace.evaluation_matrix.calls", "count", "lower"),
    ("rrspace.kept_ratio", "ratio", "higher"),
    ("agcode.build.calls", "count", "lower"),
    ("agcode.build.s", "s", "lower"),
    ("agcode.min_distance.calls", "count", "lower"),
    ("agcode.min_distance.s", "s", "lower"),
    ("agcode.min_distance.exact_ratio", "ratio", "higher"),
    ("agcode.weight_distribution.calls", "count", "lower"),
    ("agcode.weight_distribution.s", "s", "lower"),
    ("agcode.codewords", "count-computed", "lower"),
    ("agcode.codewords_per_s", "1/s", "higher"),
    ("agcode.dual.calls", "count", "lower"),
    ("agcode.dual.s", "s", "lower"),
    ("agcode.self_orth.calls", "count", "lower"),
    ("agcode.self_orth.s", "s", "lower"),
    ("agcode.duality_claim.calls", "count", "lower"),
    ("agcode.duality_claim.s", "s", "lower"),
    ("agcode.self_s", "s", "lower"),
    ("quantum.s", "s", "lower"),
    ("simulator.transmission.calls", "count", "lower"),
    ("simulator.transmission.s", "s", "lower"),
    ("simulator.trials", "count", "lower"),
    ("simulator.trials_per_s", "1/s", "higher"),
    ("simulator.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def derive(stats: dict) -> dict:
    """Named per-layer metric values from one raw stats record.

    `trace.overhead_ratio` needs an untraced run to compare with and is
    filled in by the caller.  A layer that did not run reads 0.
    """
    calls, incl, counters = stats["calls"], stats["incl"], stats["counters"]
    out = {}
    for group in GROUPS:
        out[f"{group}.calls"] = calls.get(group, 0)
        out[f"{group}.s"] = incl.get(group, 0.0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = stats["layer_self"].get(layer, 0.0)
    for name in ("linalg.matmul.macs", "linalg.matmul.gather_bytes_max", "linalg.rref.row_ops",
                 "linalg.row_filter.offers", "agcode.codewords", "simulator.trials"):
        out[name] = counters.get(name, 0)
    out["linalg.row_filter.kept_ratio"] = _ratio(counters.get("linalg.row_filter.kept", 0),
                                                 counters.get("linalg.row_filter.offers", 0))
    out["rrspace.kept_ratio"] = _ratio(counters.get("rrspace.kept", 0),
                                       counters.get("rrspace.candidates", 0))
    out["agcode.min_distance.exact_ratio"] = _ratio(counters.get("agcode.min_distance.exact", 0),
                                                    calls.get("agcode.min_distance", 0))
    out["agcode.codewords_per_s"] = _ratio(counters.get("agcode.codewords", 0),
                                           counters.get("agcode.enumeration_s", 0.0))
    out["quantum.s"] = stats["layer_incl"].get("quantum", 0.0)
    out["simulator.trials_per_s"] = _ratio(counters.get("simulator.trials", 0),
                                           incl.get("simulator.transmission", 0.0))
    return {name: out[name] for name, _, _ in PER_LAYER if name in out}
