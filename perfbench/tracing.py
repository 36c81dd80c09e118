"""Spans around the calls into each module of the library, made from outside it.

:class:`Tracer` wraps the public functions of every layer module (plus
``verify._zonal_value``, the off-axis point evaluator) and rebinds each
name wherever a ``ballschwarz`` module bound it, so calls between modules
and inside a module both pass through a wrapper.  A span is (name, start,
end, parent); spans stay in memory until :meth:`Tracer.dump`.  Counts are
taken at the same boundaries: integrand evaluations by wrapping the
integrand handed to ``integrate``, ``h`` calls by wrapping the function
handed to ``radial_derivative_estimate``, and Monte-Carlo samples from
that function's argument.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict

LAYERS = ("quadrature", "specfn", "envelope", "poisson", "disc", "hilbert_ball", "verify", "cli")
PRIVATE_TRACED = {"verify": ("_zonal_value",)}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.child_time: list[float] = []
        self.raised: set[int] = set()
        self.nonfinite: set[int] = set()
        self.evals: dict[int, list[int]] = {}  # integrate span -> [evaluations, integrand calls]
        self.h_calls: dict[int, int] = {}
        self.mc_samples: dict[int, int] = {}
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.child_time.append(0.0)
        self.ends.append(math.nan)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter()
        self.ends[idx] = end
        self._stack.pop()
        parent = self.parents[idx]
        if parent >= 0:
            self.child_time[parent] += end - self.starts[idx]

    def _wrap(self, name: str, fn):
        tracer = self

        def count_integrand(idx, f):
            counts = tracer.evals.setdefault(idx, [0, 0])

            def counted(x):
                counts[0] += len(x)
                counts[1] += 1
                return f(x)

            return counted

        def count_h(idx, h):
            tracer.h_calls[idx] = 0

            def counted(r):
                tracer.h_calls[idx] += 1
                return h(r)

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            if name == "quadrature.integrate":
                args = (count_integrand(idx, args[0]),) + args[1:]
            elif name == "poisson.radial_derivative_estimate":
                args = (count_h(idx, args[0]),) + args[1:]
            elif name == "poisson.monte_carlo_extension":
                tracer.mc_samples[idx] = int(kwargs["samples"] if "samples" in kwargs else args[3])
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised.add(idx)
                raise
            finally:
                tracer._close(idx)
            if name == "quadrature.integrate" and not math.isfinite(result):
                tracer.nonfinite.add(idx)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function in every loaded ``ballschwarz`` module."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"ballschwarz.{layer}")
            for attr in list(module.__all__) + list(PRIVATE_TRACED.get(layer, ())):
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "ballschwarz" and not modname.startswith("ballschwarz."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._originals.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._originals):
            setattr(module, attr, value)
        self._originals.clear()

    # -- analysis ----------------------------------------------------------

    def _under(self, idx: int, name: str) -> bool:
        parent = self.parents[idx]
        while parent >= 0:
            if self.names[parent] == name:
                return True
            parent = self.parents[parent]
        return False

    def layer_metrics(self, wall_traced: float, wall_untraced: float, bytes_out: int) -> dict:
        """Per-layer counts and times, keyed by BENCHMARK.json's per-layer names."""
        names = self.names
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        self_time = defaultdict(float)
        calls = defaultdict(int)
        by_name = defaultdict(list)
        for idx, name in enumerate(names):
            layer = name.split(".")[0]
            self_time[layer] += dur[idx] - self.child_time[idx]
            calls[layer] += 1
            by_name[name].append(idx)

        def total(name, outermost=False):
            return sum(dur[i] for i in by_name[name] if not (outermost and self._under(i, name)))

        def ratio(num, den):
            return num / den if den else 0.0

        quads = by_name["quadrature.integrate"]
        evals = sum(self.evals.get(i, (0, 0))[0] for i in quads)
        f_calls = sum(self.evals.get(i, (0, 0))[1] for i in quads)
        inversions = by_name["envelope.cap_angle_from_measure"]
        inversion_quads = sum(1 for i in quads if self._under(i, "envelope.cap_angle_from_measure"))
        mc = by_name["poisson.monte_carlo_extension"]
        mc_samples = sum(self.mc_samples[i] for i in mc)
        mc_s = total("poisson.monte_carlo_extension")
        estimates = by_name["poisson.radial_derivative_estimate"]
        hb_busy = sum(dur[i] for i in range(len(names))
                      if names[i].startswith("hilbert_ball.")
                      and not (self.parents[i] >= 0 and names[self.parents[i]].startswith("hilbert_ball.")))
        on_axis_parents = {self.parents[i] for i in by_name["poisson.zonal_extension_on_axis"]}
        offaxis = [i for i in by_name["verify._zonal_value"] if i not in on_axis_parents]
        offaxis_set = set(offaxis)

        def under_offaxis(i):
            parent = self.parents[i]
            while parent >= 0:
                if parent in offaxis_set:
                    return True
                parent = self.parents[parent]
            return False

        offaxis_quads = [i for i in quads if under_offaxis(i)]

        m = {
            "quadrature.calls": len(quads),
            "quadrature.evals": evals,
            "quadrature.f_calls": f_calls,
            "quadrature.evals_per_call": ratio(evals, len(quads)),
            "quadrature.self_s": self_time["quadrature"],
            "quadrature.raised": sum(1 for i in quads if i in self.raised),
            "quadrature.nonfinite": sum(1 for i in quads if i in self.nonfinite),
            "envelope.cap_inversions": len(inversions),
            "envelope.quads_per_inversion": ratio(inversion_quads, len(inversions)),
            "envelope.cap_inversion_s": total("envelope.cap_angle_from_measure", outermost=True),
            "envelope.calls": calls["envelope"],
            "envelope.self_s": self_time["envelope"],
            "specfn.calls": calls["specfn"],
            "specfn.sphere_prefactors_calls": len(by_name["specfn.sphere_prefactors"]),
            "specfn.self_s": self_time["specfn"],
            "poisson.mc_calls": len(mc),
            "poisson.mc_samples": mc_samples,
            "poisson.mc_samples_per_s": ratio(mc_samples, mc_s),
            "poisson.mc_s": mc_s,
            "poisson.zonal_axis_calls": len(by_name["poisson.zonal_extension_on_axis"]),
            "poisson.zonal_axis_s": total("poisson.zonal_extension_on_axis", outermost=True),
            "poisson.richardson_estimates": len(estimates),
            "poisson.h_calls_per_estimate": ratio(sum(self.h_calls[i] for i in estimates), len(estimates)),
            "poisson.self_s": self_time["poisson"],
            "disc.evals": len(by_name["disc.arc_extension"]),
            "disc.self_s": self_time["disc"],
            "hilbert_ball.calls": calls["hilbert_ball"],
            "hilbert_ball.calls_per_s": ratio(calls["hilbert_ball"], hb_busy),
            "hilbert_ball.self_s": self_time["hilbert_ball"],
            "verify.offaxis_points": len(offaxis),
            "verify.quads_per_offaxis_point": ratio(len(offaxis_quads), len(offaxis)),
            "verify.evals_per_offaxis_point": ratio(
                sum(self.evals.get(i, (0, 0))[0] for i in offaxis_quads), len(offaxis)),
            "verify.offaxis_s": sum(dur[i] for i in offaxis),
            "verify.suite_s": total("verify.default_verification_suite"),
            "verify.majorant_s": total("verify.check_hemisphere_majorant"),
            "verify.self_s": self_time["verify"],
            "cli.invocations": len(by_name["cli.main"]),
            "cli.self_s": self_time["cli"],
            "cli.bytes_out": bytes_out,
            "trace.overhead_frac": wall_traced / wall_untraced - 1.0,
        }
        for layer in LAYERS:
            m[f"{layer}.share"] = self_time[layer] / wall_traced
        return m

    def dump(self, path) -> None:
        """Write the spans as gzipped parallel arrays (times relative to the first span)."""
        origin = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({
                "names": self.names,
                "start_s": [round(s - origin, 9) for s in self.starts],
                "end_s": [round(e - origin, 9) for e in self.ends],
                "parent": self.parents,
            }, handle)
