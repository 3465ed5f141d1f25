"""Per-layer spans recorded from outside the program.

Every public function of each sospencil module, plus ``soscert._ipm`` (the
numeric stage's single entry) and the two ``Polynomial`` methods the
metrics name (``__mul__`` and ``eval_complex``), is replaced by a wrapper
at every module binding that refers to it, so that ``from .x import f``
copies are caught too. A wrapper keeps, per function, the call count, the
inclusive time and the self time (span minus its child spans), and a few
counts read off arguments and results at the boundary. Everything stays in
memory until the run writes it out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = (
    "cli",
    "parsing",
    "serialize",
    "polycore",
    "exactlinalg",
    "gramkernel",
    "soscert",
    "polarize",
    "realize",
    "herglotz",
)
PRIVATE = {"soscert": ("_ipm",)}
METHODS = {"polycore.mul": "__mul__", "polycore.eval_complex": "eval_complex"}


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "accepted", "max_n", "points")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.accepted = 0
        self.max_n = 0
        self.points = 0


def _observe(name, stat, args, result):
    """Counts taken at the boundary of the functions whose ratios matter."""
    if name == "exactlinalg.psd_factor":
        stat.max_n = max(stat.max_n, len(args[0]))
        stat.accepted += result is not None
    elif name == "soscert.sos_certify":
        stat.accepted += type(result).__name__ == "SosCertificate"
    elif name == "herglotz.slice_scan":
        stat.points += result.samples + result.skipped


class Tracer:
    def __init__(self):
        self.stats = {}
        self._stack = [0.0]
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                stack[-1] += elapsed
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - children
            _observe(name, stat, args, result)
            return result

        return wrapper

    def install(self):
        modules = {m: importlib.import_module(f"sospencil.{m}") for m in LAYERS}
        targets = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                public = not attr.startswith("_") or attr in PRIVATE.get(layer, ())
                if public and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    targets[id(obj)] = (obj, self._wrap(f"{layer}.{attr.lstrip('_')}", obj))
        owners = [sys.modules["sospencil"], *modules.values()]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                if id(obj) in targets and targets[id(obj)][0] is obj:
                    self._patch(owner, attr, targets[id(obj)][1])
        poly = modules["polycore"].Polynomial
        for name, attr in METHODS.items():
            self._patch(poly, attr, self._wrap(name, vars(poly)[attr]))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def layer_metrics(self, rounds, overhead_s, scale):
        """The per-layer metrics, per traced round, with times multiplied by
        ``scale`` (the run's speed scale, see speed.py)."""
        get = self.stats.get
        empty = Stat()

        def s(name):
            return (get(name) or empty).self_s * scale / rounds

        def calls(name):
            return (get(name) or empty).calls / rounds

        def ratio(name):
            stat = get(name) or empty
            return stat.accepted / stat.calls if stat.calls else 0.0

        scan = get("herglotz.slice_scan") or empty
        serialize_s = sum(v.self_s for k, v in self.stats.items() if k.startswith("serialize."))
        values = {
            "exactlinalg.rref_s": (s("exactlinalg.rref"), "s"),
            "exactlinalg.rref.calls": (calls("exactlinalg.rref"), "count"),
            "exactlinalg.psd_factor_s": (s("exactlinalg.psd_factor"), "s"),
            "exactlinalg.psd_factor.calls": (calls("exactlinalg.psd_factor"), "count"),
            "exactlinalg.psd_factor.max_n": ((get("exactlinalg.psd_factor") or empty).max_n, "count"),
            "exactlinalg.psd_factor.accept_ratio": (ratio("exactlinalg.psd_factor"), "ratio"),
            "soscert.sos_certify_s": (s("soscert.sos_certify"), "s"),
            "soscert.sos_certify.calls": (calls("soscert.sos_certify"), "count"),
            "soscert.ipm_s": (s("soscert.ipm"), "s"),
            "soscert.ipm.calls": (calls("soscert.ipm"), "count"),
            "soscert.certificate_ratio": (ratio("soscert.sos_certify"), "ratio"),
            "polycore.mul_s": (s("polycore.mul"), "s"),
            "polycore.mul.calls": (calls("polycore.mul"), "count"),
            "polycore.wronskian_s": (s("polycore.wronskian"), "s"),
            "polarize.product_polarization_s": (s("polarize.product_polarization"), "s"),
            "polarize.verify_pencil_s": (s("polarize.verify_pencil"), "s"),
            "gramkernel.kernel_basis_s": (s("gramkernel.kernel_basis"), "s"),
            "gramkernel.defect_completion_s": (s("gramkernel.defect_completion"), "s"),
            "realize.wronskian_realization_s": (s("realize.wronskian_realization"), "s"),
            "realize.verify_realization_s": (s("realize.verify_realization"), "s"),
            "herglotz.slice_scan_s": (s("herglotz.slice_scan"), "s"),
            "herglotz.crosscheck_slice_criterion_s": (s("herglotz.crosscheck_slice_criterion"), "s"),
            "herglotz.points.count": (scan.points / rounds, "count"),
            "herglotz.points_per_s": (
                scan.points / (scan.total_s * scale) if scan.total_s else 0.0, "1/s"
            ),
            "polycore.eval_complex_s": (s("polycore.eval_complex"), "s"),
            "polycore.eval_complex.calls": (calls("polycore.eval_complex"), "count"),
            "cli.main_s": (s("cli.main"), "s"),
            "parsing.parse_polynomial_s": (s("parsing.parse_polynomial"), "s"),
            "serialize.json_s": (serialize_s * scale / rounds, "s"),
            "trace.overhead_s": (overhead_s, "s"),
        }
        return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}

    def summary(self, rounds):
        """Every wrapped function's totals per traced round, for the raw output."""
        return {
            name: {
                "calls": stat.calls / rounds,
                "self_s": stat.self_s / rounds,
                "total_s": stat.total_s / rounds,
            }
            for name, stat in sorted(self.stats.items())
            if stat.calls
        }
