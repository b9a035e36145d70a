"""Spans around calls into the library's public functions.

`Tracer.install` replaces each traced function by a wrapper, under its own
module's name and under every name another `twoweightlab` module imported it
by (such as `hilbert.log_abs_ratio_interval`), so calls made inside the
library are traced as well.  `uninstall` puts the originals back.

A span is (name, start, end, parent span, task id).  Spans are kept in
memory as columns and written out once, when the run ends.  A span's self
time is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

from twoweightlab import enclosure, hilbert, lorentz, measures, sparse, triadic, weights

SETUP_TASK = -1  # task id of spans recorded during set-up and input generation

# (owner, attribute): every traced function; the span name is
# "<module>.<attribute>", with the class in between for a method.
TRACED = (
    (hilbert, "hilbert_norm_ratio"), (hilbert, "hilbert_weight"), (hilbert, "maximal_at"),
    (enclosure, "log_abs_ratio_interval"), (enclosure, "ratio_interval"),
    (enclosure, "pow_enclosure"), (enclosure, "log_interval"),
    (measures, "mass"), (measures, "ap_product"),
    (sparse, "gen_random_martingale"), (sparse, "gen_adversarial"),
    (sparse, "is_martingale_sparse"), (sparse, "transplant_family"),
    (sparse, "testing_report"), (sparse, "testing_sum"),
    (weights.WeightModel, "place_core"), (weights, "build_construction"),
    (triadic, "cell_from_index"),
    (lorentz, "lorentz_norm"), (lorentz, "distribution"), (lorentz, "bump_product"),
    (lorentz, "luxemburg_norm"),
)

# per-layer metrics: (name, unit); `layer_metrics` computes each of them
PER_LAYER = (
    ("hilbert.hilbert_norm_ratio.self_s", "s"),
    ("hilbert.hilbert_norm_ratio.points_per_call", "count/call"),
    ("hilbert.hilbert_weight.calls", "count"),
    ("hilbert.hilbert_weight.self_s", "s"),
    ("hilbert.hilbert_weight.expansions_per_call", "count/call"),
    ("hilbert.hilbert_weight.unconverged_ratio", "ratio"),
    ("enclosure.log_abs_ratio_interval.calls", "count"),
    ("enclosure.log_abs_ratio_interval.self_s", "s"),
    ("enclosure.ratio_interval.calls", "count"),
    ("enclosure.ratio_interval.self_s", "s"),
    ("hilbert.maximal_at.self_s", "s"),
    ("measures.mass.calls", "count"),
    ("measures.mass.self_s", "s"),
    ("measures.mass.inexact_ratio", "ratio"),
    ("sparse.gen_random_martingale.self_s", "s"),
    ("sparse.gen_adversarial.self_s", "s"),
    ("sparse.is_martingale_sparse.self_s", "s"),
    ("sparse.transplant_family.self_s", "s"),
    ("sparse.testing_report.self_s", "s"),
    ("sparse.testing_sum.self_s", "s"),
    ("sparse.testing_sum.members_per_call", "count/call"),
    ("measures.ap_product.self_s", "s"),
    ("enclosure.pow_enclosure.calls", "count"),
    ("enclosure.pow_enclosure.self_s", "s"),
    ("weights.WeightModel.place_core.calls", "count"),
    ("weights.WeightModel.place_core.self_s", "s"),
    ("triadic.cell_from_index.calls", "count"),
    ("triadic.cell_from_index.self_s", "s"),
    ("weights.build_construction.self_s", "s"),
    ("lorentz.lorentz_norm.psi.calls", "count"),
    ("lorentz.lorentz_norm.psi.self_s", "s"),
    ("lorentz.lorentz_norm.errors", "count"),
    ("lorentz.lorentz_norm.phi0.self_s", "s"),
    ("lorentz.distribution.self_s", "s"),
    ("lorentz.bump_product.self_s", "s"),
    ("lorentz.luxemburg_norm.self_s", "s"),
    ("enclosure.log_interval.calls", "count"),
    ("enclosure.log_interval.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def _span_name(owner, attr: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__qualname__}.{attr}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


def _lorentz_norm_name(args, kwargs) -> str:
    gauge = args[1] if len(args) > 1 else kwargs["phi"]
    family = gauge.name.split("[", 1)[0]
    return f"lorentz.lorentz_norm.{family}"


class Tracer:
    SETUP_TASK = SETUP_TASK

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.col_name = array("i")
        self.col_start = array("d")
        self.col_end = array("d")
        self.col_parent = array("i")
        self.col_task = array("i")
        self.stack: list[int] = []
        self.task = SETUP_TASK
        self.active = False
        self.counts: Counter = Counter()  # facts read from arguments and results
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name: str):
        tracer = self
        nid = self._name_id(name)
        by_gauge = name == "lorentz.lorentz_norm"
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_nid = tracer._name_id(_lorentz_norm_name(args, kwargs)) if by_gauge else nid
            stack = tracer.stack
            i = len(tracer.col_start)
            tracer.col_name.append(span_nid)
            tracer.col_parent.append(stack[-1] if stack else -1)
            tracer.col_task.append(tracer.task)
            tracer.col_end.append(0.0)
            stack.append(i)
            tracer.col_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except ArithmeticError:
                tracer.col_end[i] = perf_counter()
                stack.pop()
                tracer.counts[f"{name}.errors"] += 1
                raise
            except BaseException:
                tracer.col_end[i] = perf_counter()
                stack.pop()
                raise
            tracer.col_end[i] = perf_counter()
            stack.pop()
            if observe is not None:
                observe(tracer.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every traced function wherever a `twoweightlab` module names it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "twoweightlab" or n.startswith("twoweightlab.")]
        for owner, attr in TRACED:
            fn = owner.__dict__[attr]
            wrapper = self._wrap(fn, _span_name(owner, attr))
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        self._saved.append((module, name, fn))
                        setattr(module, name, wrapper)

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_ratio, from the spans."""
        n = len(self.col_start)
        starts, ends, parents, names = self.col_start, self.col_end, self.col_parent, self.col_name
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i in range(n):
            nm = names[i]
            calls[nm] += 1
            self_s[nm] += ends[i] - starts[i] - child[i]
        by_name_calls = {self.names[i]: c for i, c in calls.items()}
        by_name_self = {self.names[i]: s for i, s in self_s.items()}
        norm_id = self.name_ids.get("hilbert.hilbert_norm_ratio")
        point_id = self.name_ids.get("hilbert.hilbert_weight")
        counts = Counter(self.counts)
        counts["hilbert.hilbert_norm_ratio.points"] = sum(
            1 for i in range(n) if names[i] == point_id and parents[i] >= 0
            and names[parents[i]] == norm_id)
        out = {}
        for metric, _unit in PER_LAYER:
            base, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = by_name_calls.get(base, 0)
            elif field == "self_s":
                out[metric] = by_name_self.get(base, 0.0)
            elif field == "errors":
                out[metric] = counts[metric]
            elif metric in _PER_CALL:
                calls_of_base = by_name_calls.get(base, 0)
                out[metric] = counts[_PER_CALL[metric]] / calls_of_base if calls_of_base else 0.0
        return out

    def write(self, path: Path) -> None:
        """Spans as a JSON header next to a binary file of the five columns."""
        data = path.with_suffix(".bin")
        columns = (("name", self.col_name), ("start", self.col_start),
                   ("end", self.col_end), ("parent", self.col_parent),
                   ("task", self.col_task))
        with open(data, "wb") as fh:
            for _, col in columns:
                col.tofile(fh)
        header = {"spans": len(self.col_start), "names": self.names,
                  "data": data.name, "task_setup": SETUP_TASK,
                  "columns": [[c, col.typecode, col.itemsize] for c, col in columns]}
        path.write_text(json.dumps(header, indent=1) + "\n")


def _observe_hilbert_weight(counts, args, hv):
    counts["hilbert.hilbert_weight.expansions"] += hv.expansions
    counts["hilbert.hilbert_weight.unconverged"] += not hv.converged


def _observe_mass(counts, args, enc):
    counts["measures.mass.inexact"] += enc.lo < enc.hi


def _observe_testing_sum(counts, args, _result):
    family, L = args[1], args[2]
    members = family.members if isinstance(family, sparse.SparseFamily) else tuple(family)
    counts["sparse.testing_sum.members"] += sum(1 for m in members if L.contains(m))


# ratio metrics: the count each one divides by the calls of its span
_PER_CALL = {
    "hilbert.hilbert_norm_ratio.points_per_call": "hilbert.hilbert_norm_ratio.points",
    "hilbert.hilbert_weight.expansions_per_call": "hilbert.hilbert_weight.expansions",
    "hilbert.hilbert_weight.unconverged_ratio": "hilbert.hilbert_weight.unconverged",
    "measures.mass.inexact_ratio": "measures.mass.inexact",
    "sparse.testing_sum.members_per_call": "sparse.testing_sum.members",
}

_OBSERVERS = {
    "hilbert.hilbert_weight": _observe_hilbert_weight,
    "measures.mass": _observe_mass,
    "sparse.testing_sum": _observe_testing_sum,
}
