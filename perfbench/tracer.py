"""In-memory span tracer that wraps the ``repro`` layer entry points.

Tracing happens from the benchmark's side only: :meth:`Tracer.install`
replaces module attributes at the points where callers look them up
(:data:`PATCHES`: ``racke.BUILDERS[...]``, ``repro.core.engine.solve_rhgpt``,
...) with wrappers that record a span around each call.  Nothing in ``src/`` is
edited, and :meth:`Tracer.uninstall` puts every original back.

A span is ``(id, name, start, end, parent, op)``.  Spans nest per thread;
a span opened with no open span on its thread is a *root*, and starts a
new operation id that its children inherit.  A layer's self time is its
span duration minus the part covered by its child spans, so the self
times of all spans add up to the summed duration of the root spans: the
ledger closes by construction unless spans overlap, which
:meth:`Tracer.ledger` checks.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layers with a self-time span, in report order.  ``engine`` is the
#: engine entry (``solve_hgp`` from the benchmark, ``run_pipeline`` from
#: the streaming and serving layers); its self time is the part of the
#: solve no finer layer claims (``engine.unattributed.s``).
SPAN_LAYERS = (
    "embed",
    "embed.spectral",
    "embed.contraction",
    "embed.frt",
    "embed.mincut",
    "graph.dijkstra",
    "graph.fiedler",
    "flow.stoer_wagner",
    "flow.maxflow",
    "quantize",
    "binarize",
    "dp",
    "repair",
    "refine",
    "fm_refine",
    "enforce_capacity",
    "coarsen",
    "coarse_solve",
    "members",
    "online.event",
    "online.snapshot",
    "online.reopt",
    "serve.parse",
    "serve.encode",
)

#: Cache tiers whose lookups the ledger reports.
CACHE_KINDS = ("trees", "subtree_tables", "coarsening", "serve_response")

#: ``(module, attribute, span name)``: where callers look each layer up.
#: ``A.b`` is attribute ``b`` of class ``A``; ``D[k]`` is key ``k`` of
#: dict ``D``.  The online placer imports ``run_pipeline`` lazily from
#: the engine module; the server bound its own name at import time.
PATCHES = (
    ("repro.decomposition.racke", "BUILDERS[spectral]", "embed.spectral"),
    ("repro.decomposition.racke", "BUILDERS[contraction]", "embed.contraction"),
    ("repro.decomposition.racke", "BUILDERS[frt]", "embed.frt"),
    ("repro.decomposition.racke", "BUILDERS[mincut]", "embed.mincut"),
    ("repro.core.engine", "racke_ensemble", "embed"),
    ("repro.decomposition.frt", "all_pairs_dijkstra", "graph.dijkstra"),
    ("repro.decomposition.spectral_tree", "fiedler_vector", "graph.fiedler"),
    ("repro.decomposition.mincut_split", "fiedler_vector", "graph.fiedler"),
    ("repro.decomposition.mincut_split", "stoer_wagner", "flow.stoer_wagner"),
    ("repro.flow.mincut", "max_flow", "flow.maxflow"),
    ("repro.core.engine", "make_grid", "quantize"),
    ("repro.core.engine", "binarize", "binarize"),
    ("repro.core.engine", "solve_rhgpt", "dp"),
    ("repro.core.engine", "repair_to_placement", "repair"),
    ("repro.baselines.local_search", "refine_placement", "refine"),
    ("repro.baselines.local_search", "enforce_capacity", "enforce_capacity"),
    ("repro.multilevel.frontend", "fm_refine_hierarchy", "fm_refine"),
    ("repro.multilevel.frontend", "coarsen_graph", "coarsen"),
    ("repro.multilevel.frontend", "run_pipeline", "coarse_solve"),
    ("repro.core.resilience", "run_members", "members"),
    ("repro.core.engine", "run_pipeline", "engine"),
    ("repro.serve.server", "run_pipeline", "engine"),
    ("repro.streaming.online", "OnlinePlacer.arrive", "online.event"),
    ("repro.streaming.online", "OnlinePlacer.depart", "online.event"),
    ("repro.streaming.online", "OnlinePlacer.update_edge", "online.event"),
    ("repro.streaming.online", "OnlinePlacer.live_graph", "online.snapshot"),
    ("repro.streaming.online", "OnlinePlacer.reoptimize", "online.reopt"),
    ("repro.serve.protocol", "parse_solve_request", "serve.parse"),
    ("repro.serve.protocol", "json_body", "serve.encode"),
    ("repro.serve.protocol", "http_response", "serve.encode"),
)

Span = Tuple[int, str, float, float, Optional[int], int]


def _resolve(module: str, attr: str):
    """``(owner, key)`` for a :data:`PATCHES` entry, ``(None, None)`` if gone."""
    try:
        owner = importlib.import_module(module)
        if "[" in attr:
            name, key = attr[:-1].split("[")
            owner = getattr(owner, name)
            return (owner, key) if key in owner else (None, None)
        *path, attr = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        getattr(owner, attr)
    except (ImportError, AttributeError):
        return None, None
    return owner, attr


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.members: List[Any] = []
        self._ids = itertools.count()
        self._ops = itertools.count()
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []
        self._afters = {
            "coarsen": lambda lv: self.count("coarsen.levels", lv.stats.levels),
            "members": lambda out: self.count("pool.restarts", out[2]),
        }

    # -- recording ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record one span named ``name`` around the ``with`` body."""
        stack = self._stack()
        if getattr(self._local, "paused", False):
            yield
            return
        sid = next(self._ids)
        if stack:
            parent, op = stack[-1]
        else:
            parent, op = None, next(self._ops)
        stack.append((sid, op))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, op))

    @contextmanager
    def paused(self):
        """Run the body untraced (the benchmark's own checks)."""
        self._local.paused = True
        try:
            yield
        finally:
            self._local.paused = False

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[key] += value

    # -- patching -------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, after: Optional[Callable] = None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if after is not None and not getattr(self._local, "paused", False):
                after(out)
            return out

        return wrapper

    def _hook(self, owner: Any, attr: str, hook: Callable) -> None:
        """Call ``hook(args, result)`` after each ``owner.attr`` call."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            out = orig(*args, **kwargs)
            if not getattr(self._local, "paused", False):
                hook(args, out)
            return out

        setattr(owner, attr, wrapper)
        self._undo.append(functools.partial(setattr, owner, attr, orig))

    def install(self) -> "Tracer":
        """Wrap every layer entry point in :data:`PATCHES`.

        An entry point a later version of the program no longer has is
        skipped: its layer then reads 0 instead of breaking the run.
        """
        for module, attr, name in PATCHES:
            owner, attr = _resolve(module, attr)
            if owner is None:
                continue
            after = self._afters.get(name)
            if isinstance(owner, dict):
                orig = owner[attr]
                owner[attr] = self._wrap(name, orig, after)
                self._undo.append(functools.partial(owner.__setitem__, attr, orig))
            else:
                orig = getattr(owner, attr)
                setattr(owner, attr, self._wrap(name, orig, after))
                self._undo.append(functools.partial(setattr, owner, attr, orig))

        def on_lookup(args, out):
            kind = args[1]
            self.count(f"cache.{kind}.lookups")
            self.count(f"cache.{kind}.hits", 1.0 if out[0] else 0.0)

        def on_take(args, out):
            if out is not None:
                self.count("serve.admission_wait.s", time.monotonic() - out[1])

        def on_member(args, out):
            self.members.append(args[1])

        for module, attr, hook in (
            ("repro.cache.cache", "SolverCache.lookup", on_lookup),
            ("repro.serve.admission", "AdmissionQueue.take", on_take),
            ("repro.core.telemetry", "Telemetry.record_member", on_member),
        ):
            owner, attr = _resolve(module, attr)
            if owner is not None:
                self._hook(owner, attr, hook)
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse install order)."""
        while self._undo:
            self._undo.pop()()

    # -- the ledger -----------------------------------------------------

    def inclusive(self, name: str) -> float:
        """Summed duration of the root spans called ``name``."""
        return sum(
            end - start
            for _i, n, start, end, parent, _o in self.spans
            if n == name and parent is None
        )

    def ledger(self) -> Tuple[Dict[str, float], bool, float]:
        """Per-layer metrics, whether the ledger closes, and its wall.

        Returns ``(metrics, closes, wall)`` where ``wall`` is the summed
        duration of the root spans and ``closes`` says that the layer
        self times add up to it.
        """
        dur = {sid: end - start for sid, _n, start, end, _p, _o in self.spans}
        covered: Dict[int, float] = defaultdict(float)
        for sid, _n, _s, _e, parent, _o in self.spans:
            if parent is not None:
                covered[parent] += dur[sid]
        self_s: Dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        wall = 0.0
        for sid, name, _s, _e, parent, _o in self.spans:
            self_s[name] += dur[sid] - covered[sid]
            calls[name] += 1
            if parent is None:
                wall += dur[sid]
        total_self = sum(self_s.values())
        closes = abs(total_self - wall) <= 1e-6 + 1e-9 * wall and all(
            dur[sid] >= covered[sid] - 1e-9 for sid in dur
        )

        out: Dict[str, float] = {}
        for name in SPAN_LAYERS:
            out[f"{name}.s"] = self_s[name]
            out[f"{name}.calls"] = float(calls[name])
        out["engine.unattributed.s"] = self_s["engine"]
        out["engine.calls"] = float(calls["engine"])
        out["ledger.wall_s"] = wall
        out["ledger.self_sum_s"] = total_self
        for kind in CACHE_KINDS:
            lookups = self.counts[f"cache.{kind}.lookups"]
            out[f"cache.{kind}.lookups"] = lookups
            out[f"cache.{kind}.hit_ratio"] = (
                self.counts[f"cache.{kind}.hits"] / lookups if lookups else 0.0
            )
        recs = self.members
        memo_hits = sum(r.dp_memo_hits for r in recs)
        memo_probes = memo_hits + sum(r.dp_memo_misses for r in recs)
        out["dp.states_total"] = float(sum(r.dp_states_total for r in recs))
        out["dp.beam_escalations"] = float(sum(r.beam_escalations for r in recs))
        out["dp.memo_hit_ratio"] = memo_hits / memo_probes if memo_probes else 0.0
        out["resilience.retries"] = float(sum(r.attempts - 1 for r in recs))
        out["pool.restarts"] = self.counts["pool.restarts"]
        out["coarsen.levels"] = self.counts["coarsen.levels"]
        out["serve.admission_wait.s"] = self.counts["serve.admission_wait.s"]
        return out, closes, wall
