"""Outside-in tracing of the loxpairs layers.

Every public function of each layer module, plus the methods and the
private Newton polish named in EXTRA, is replaced by a wrapper that
records a span: name, start, end, parent span, op index and whether it
raised.  Modules import names directly (`from .spectral import
eigen_frame`), so a wrapper is bound in place of every module attribute
and class attribute that holds the original callable; `patch` then
checks that no binding of an original is left.

Spans are kept in memory in flat integer arrays and written when the
run ends.  A layer's self time is its span minus the spans of its
direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

from inputs import from_qarray

LAYERS = ("quat", "qmatrix", "hermitian", "polys", "spectral", "genericity",
          "gram", "invariants", "classify", "twistbend", "generate",
          "serialize", "cli")

# traced callables that are not public module functions:
# metric name -> (module, owner attribute or None, attribute)
EXTRA = {
    "qmatrix.matmul": ("qmatrix", "QArray", "__matmul__"),
    "qmatrix.inverse": ("qmatrix", "QArray", "inverse"),
    "hermitian.inner": ("hermitian", "HermitianSpace", "inner"),
    "twistbend.PantsGroup": ("twistbend", "PantsGroup", "__init__"),
    "classify.refine": ("classify", None, "_refine_conjugator"),
}

REFINE_TOL = 1e-7   # conjugacy_test's default tol, its final residual gate
PROBE = "bench.refine_probe"


def _targets(pkg: str):
    """(metric name, owner object, attribute, original) to wrap."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"{pkg}.{layer}")
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == mod.__name__):
                out.append((f"{layer}.{name}", mod, name, obj))
    for metric, (layer, owner, attr) in EXTRA.items():
        mod = importlib.import_module(f"{pkg}.{layer}")
        holder = getattr(mod, owner) if owner else mod
        out.append((metric, holder, attr, getattr(holder, attr)))
    return out


def _max_abs(Q) -> float:
    return float(np.sqrt(np.max(np.abs(Q.a) ** 2 + np.abs(Q.b) ** 2)))


class Tracer:
    def __init__(self, pkg: str = "loxpairs"):
        self.pkg = pkg
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one entry per span
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.raised = array("b")
        self._stack: list[int] = []
        self.current_op = 0
        self.stages: dict[str, int] = {}
        self.refine_unneeded = 0
        self._restore: list[tuple] = []

    # -- recording --------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.raised.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, raised: bool):
        self.end[idx] = time.perf_counter_ns()
        self.raised[idx] = raised
        self._stack.pop()

    def _wrap(self, metric: str, fn):
        nid = self._id(metric)
        before = self._probe_refine if metric == "classify.refine" else None
        after = self._count_stage if metric == "classify.conjugacy_test" \
            else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before:
                before(*args)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, True)
                raise
            self._close(idx, False)
            if after:
                after(result)
            return result

        return traced

    def _count_stage(self, res):
        self.stages[res.stage] = self.stages.get(res.stage, 0) + 1

    def _probe_refine(self, space, C, pairs, *rest):
        """Does the incoming C already meet conjugacy_test's final gate
        tol * (1 + max |X'|)?  Recorded as a child span of the caller, so
        its time is not charged to any layer."""
        idx = self._open(self._id(PROBE))
        try:
            Ce = from_qarray(C)
            Cie = np.linalg.inv(Ce)
            resid = max(float(np.max(np.abs(
                Ce @ from_qarray(X) @ Cie - from_qarray(Xp))))
                for X, Xp in pairs)
            scale = 1.0 + max(_max_abs(Xp) for _, Xp in pairs)
            if resid <= REFINE_TOL * scale:
                self.refine_unneeded += 1
        finally:
            self._close(idx, False)

    # -- patching ---------------------------------------------------------

    def patch(self):
        """Bind a wrapper in place of every binding of every target."""
        targets = _targets(self.pkg)
        wrapped = {id(orig): self._wrap(metric, orig)
                   for metric, _, _, orig in targets}
        originals = {id(orig): orig for *_, orig in targets}
        for holder in self._holders():
            for attr, val in list(vars(holder).items()):
                if id(val) in wrapped and val is originals[id(val)]:
                    self._restore.append((holder, attr, val))
                    setattr(holder, attr, wrapped[id(val)])
        left = [f"{getattr(h, '__name__', h)}.{a}"
                for h in self._holders() for a, v in vars(h).items()
                if id(v) in originals and v is originals[id(v)]]
        if left:
            raise RuntimeError(f"untraced bindings remain: {left}")

    def unpatch(self):
        for holder, attr, val in reversed(self._restore):
            setattr(holder, attr, val)
        self._restore.clear()

    def _holders(self):
        """Every loxpairs module and every class defined in one."""
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.pkg
                                      or name.startswith(self.pkg + "."))]
        classes = [c for m in mods for c in vars(m).values()
                   if inspect.isclass(c)
                   and c.__module__.startswith(self.pkg)]
        return [*mods, *{id(c): c for c in classes}.values()]

    # -- aggregation ------------------------------------------------------

    def table(self, op_scale: np.ndarray) -> dict[str, dict]:
        """Per traced name: calls, errors and self time in ns, each span
        scaled by the speed factor of its op."""
        n = len(self.name_id)
        start = np.frombuffer(self.start, dtype=np.int64, count=n)
        end = np.frombuffer(self.end, dtype=np.int64, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        nid = np.frombuffer(self.name_id, dtype=np.int32, count=n)
        raised = np.frombuffer(self.raised, dtype=np.int8, count=n)
        dur = end - start
        child = np.zeros(n, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        op = np.frombuffer(self.op, dtype=np.int32, count=n)
        self_ns = (dur - child) * op_scale[op]
        out = {}
        for i, name in enumerate(self.names):
            sel = nid == i
            out[name] = {"calls": int(np.sum(sel)),
                         "errors": int(np.sum(raised[sel])),
                         "self_ns": float(np.sum(self_ns[sel]))}
        return out

    def write(self, path: str):
        n = len(self.name_id)
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32, count=n),
            start_ns=np.frombuffer(self.start, dtype=np.int64, count=n),
            end_ns=np.frombuffer(self.end, dtype=np.int64, count=n),
            parent=np.frombuffer(self.parent, dtype=np.int32, count=n),
            op=np.frombuffer(self.op, dtype=np.int32, count=n),
            raised=np.frombuffer(self.raised, dtype=np.int8, count=n))
