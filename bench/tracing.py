"""Timing wrappers installed on the `mudal` package from outside.

Every public function of a traced module, and every public method of the
traced classes, is replaced by a wrapper that records a span: its name, its
duration and the span that called it. Spans are folded into per-name and
per-(parent, name) totals as they close, so a run with hundreds of thousands of
calls keeps a table of a few hundred rows instead of every span.

`from .objective import compute_vd` binds the function in the importing
module too, so a wrapper replaces the name in every `mudal` module that holds
it; patching the defining module alone would miss those calls.
"""
from __future__ import annotations

import inspect
import sys
from time import perf_counter

LAYERS = ("training", "objective", "nn", "models", "simplex", "bounds",
          "strategies", "data", "harness")
CLASSES = {"nn": ("DenseNet", "ParamSet"), "models": ("ModelBundle",),
           "data": ("LabeledPool",)}

# Extra counts derived from a call's arguments: name -> (counter, function).
ARG_COUNTERS = {
    # k-means++ computes one row of n squared distances per pick.
    "strategies.kmeanspp_select": (
        "strategies.kmeanspp_select.dist_rows",
        lambda vectors, k, **_: len(vectors) * int(k)),
}

_MARK = "__bench_traced__"


class Tracer:
    """Aggregated span table. `stats[name] = [calls, total_s, self_s]`,
    `edges[(parent, name)] = [calls, total_s]` with parent None at the root."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.edges: dict[tuple, list] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []  # [name, child_time] per open span

    def wrap(self, fn, name: str):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, edges, counters = self._stack, self.edges, self.counters
        counter = ARG_COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        def wrapper(*args, **kwargs):
            if counter is not None:
                key, count = counter
                bound = signature.bind(*args, **kwargs).arguments
                counters[key] = counters.get(key, 0) + count(**bound)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                parent = stack[-1][0] if stack else None
                if stack:
                    stack[-1][1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                edge = edges.get((parent, name))
                if edge is None:
                    edge = edges[(parent, name)] = [0, 0.0]
                edge[0] += 1
                edge[1] += dt

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        setattr(wrapper, _MARK, True)
        return wrapper

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0,))[0]

    def total(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def edge(self, parent: str | None, name: str) -> tuple[int, float]:
        calls, total = self.edges.get((parent, name), (0, 0.0))
        return calls, total

    def layer_self_time(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s[2] for name, s in self.stats.items() if name.startswith(prefix))

    def call_counts(self) -> dict[str, int]:
        counts = {name: s[0] for name, s in self.stats.items()}
        counts.update({f"edge:{p}>{n}": e[0] for (p, n), e in self.edges.items()})
        counts.update(self.counters)
        return counts


def _targets():
    """(qualified name, owner, attribute, function) for everything to wrap."""
    for layer in LAYERS:
        mod = sys.modules[f"mudal.{layer}"]
        for attr, obj in list(vars(mod).items()):
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                yield f"{layer}.{attr}", mod, attr, obj
        for cls_name in CLASSES.get(layer, ()):
            cls = getattr(mod, cls_name)
            for attr, obj in list(vars(cls).items()):
                if not attr.startswith("_") and inspect.isfunction(obj):
                    yield f"{layer}.{cls_name}.{attr}", cls, attr, obj


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every target for `tracer`; returns the patch list for `uninstall`."""
    import mudal  # noqa: F401  (loads every layer module)

    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "mudal" or name.startswith("mudal."))]
    patches = []
    for name, owner, attr, fn in list(_targets()):
        if getattr(fn, _MARK, False):
            raise RuntimeError(f"{name} is already traced")
        wrapper = tracer.wrap(fn, name)
        if inspect.isclass(owner):
            patches.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
            continue
        for mod in modules:
            for alias, obj in list(vars(mod).items()):
                if obj is fn:
                    patches.append((mod, alias, fn))
                    setattr(mod, alias, wrapper)
    return patches


def uninstall(patches: list[tuple]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def leftover_wrappers() -> list[str]:
    """Names in any `mudal` module or traced class still bound to a wrapper."""
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "mudal" or name.startswith("mudal.")):
            continue
        owners = [(name, mod)] + [(f"{name}.{c}", getattr(mod, c))
                                  for c in CLASSES.get(name.split(".")[-1], ())]
        for owner_name, owner in owners:
            for attr, obj in vars(owner).items():
                if getattr(obj, _MARK, False):
                    found.append(f"{owner_name}.{attr}")
    return found
