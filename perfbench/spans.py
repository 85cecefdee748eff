"""Spans around the calls into each layer of ``nlsblowup``, from outside it.

``Tracer.install`` replaces every public function of the layer modules by a
timing wrapper, at each module attribute that names it: the defining module
(so intra-module calls such as ``simulate_blowup`` -> ``lambda_hat`` are
seen) and every module that imported it (``nlsblowup.sim.decompose``,
``nlsblowup.modulation.eval_profile``, ...).  Functions of ``core`` are
wrapped only where a computing layer imported them; calls inside ``core``
stay part of their caller's span, and so do the CLI's calls into ``core``
(``field_to_csv`` is serialisation).  The CLI's own functions are not
wrapped: the benchmark opens one ``cli.<subcommand>`` span per call of
``cli.run``.  ``Tracer.remove`` puts the originals back.

A span is (name, site, start, end, parent): ``site`` is the module whose
attribute was called, ``parent`` the index of the enclosing span or -1.
Spans stay in memory until ``write`` saves them at the end of the run.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from typing import Callable, Optional

LAYERS = ("core", "groundstate", "linops", "profile", "modulation",
          "reduced", "sim", "cli")

# Span-name suffix from the call's arguments, where one name covers calls
# of very different size.
_TAGS: dict[str, Callable] = {
    "groundstate.solve_ground_state":
        lambda args, kwargs: f".n{(kwargs.get('grid') or args[1]).n}",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []     # [name, site, start, end, parent]
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (module, attribute, original)

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, site: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, site, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span of the benchmark's own (site ``bench``)."""
        idx = self._open(name, "bench")
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn: Callable, name: str, site: str) -> Callable:
        tag = _TAGS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name + tag(args, kwargs) if tag else name, site)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = {layer: importlib.import_module(f"nlsblowup.{layer}")
                for layer in LAYERS}
        for layer, mod in mods.items():
            if layer == "cli":
                continue
            for attr, fn in vars(mod).copy().items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                for site, holder in mods.items():
                    if getattr(holder, attr, None) is not fn:
                        continue
                    if layer == "core" and site in ("core", "cli"):
                        continue
                    self._patched.append((holder, attr, fn))
                    setattr(holder, attr,
                            self._wrap(fn, f"{layer}.{attr}", site))

    def remove(self) -> None:
        for holder, attr, fn in reversed(self._patched):
            setattr(holder, attr, fn)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "site", "start_s", "end_s",
                          "parent"])
            t0 = self.spans[0][2] if self.spans else 0.0
            for i, (name, site, start, end, parent) in enumerate(self.spans):
                out.writerow([i, name, site, f"{start - t0:.9f}",
                              f"{end - t0:.9f}", parent])


class Summary:
    """Per-name aggregates of a finished span list.

    ``calls(name)`` counts spans under the measured rounds (roots named
    ``bench.round``) per round; times are per call over every span of the
    name, set-up included; ``self_time`` is a span minus its children.
    """

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        n = len(spans)
        self.self_s = [s[3] - s[2] for s in spans]
        root = list(range(n))
        for i, (_, _, start, end, parent) in enumerate(spans):
            if parent >= 0:
                self.self_s[parent] -= end - start
                root[i] = root[parent]       # parents precede children
        self.in_round = [spans[root[i]][0] == "bench.round" for i in range(n)]
        self.rounds = sum(1 for s in spans
                          if s[0] == "bench.round" and s[4] < 0)
        self._by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            self._by_name.setdefault(s[0], []).append(i)

    def indices(self, name: str) -> list[int]:
        return self._by_name.get(name, [])

    def calls(self, name: str, where: Optional[Callable] = None) -> float:
        hits = [i for i in self.indices(name) if self.in_round[i]
                and (where is None or where(i))]
        return len(hits) / self.rounds if self.rounds else 0.0

    def per_call(self, name: str) -> float:
        """Mean inclusive seconds per call (0 when never called)."""
        idx = self.indices(name)
        if not idx:
            return 0.0
        return sum(self.spans[i][3] - self.spans[i][2] for i in idx) / len(idx)

    def self_total(self, name: str) -> float:
        return sum(self.self_s[i] for i in self.indices(name))

    def parent_name(self, i: int) -> Optional[str]:
        p = self.spans[i][4]
        return self.spans[p][0] if p >= 0 else None
