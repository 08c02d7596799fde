"""Per-layer tracing from outside chasekit.

`Tracer.installed()` rebinds chasekit's layer entry points to wrappers
that record spans, and puts the originals back on exit.  A name is
rebound in every chasekit module that imported it (`clouds` and
`egdsep` both import `body_homomorphisms`, for instance); methods are
patched on their class.  Nothing in `src/` changes.

Spans are kept in memory as a calling-context tree per job: calls with
the same name under the same parent span are folded into one record
with a call count, a total time and the time covered by child spans, so
memory grows with the number of distinct call paths, not with calls.
Self time is total minus child time.  Generator entry points
(`body_homomorphisms`, `homomorphisms`) are timed per resumption, so
their span covers the search itself and not the caller's loop body.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

perf_counter = time.perf_counter


class Span:
    __slots__ = ("id", "name", "parent", "job", "calls", "total", "child", "counts",
                 "children")

    def __init__(self, sid: int, name: str, parent: Optional["Span"], job: str):
        self.id = sid
        self.name = name
        self.parent = parent
        self.job = job
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.counts: Counter = Counter()
        self.children: Dict[str, "Span"] = {}

    def to_json(self) -> dict:
        return {"id": self.id, "job": self.job, "name": self.name,
                "parent": None if self.parent is None else self.parent.id,
                "calls": self.calls, "total_s": self.total,
                "self_s": self.total - self.child, "counts": dict(self.counts)}


# (module, attribute, span name, generator?) for module-level functions;
# every chasekit module that holds the same function object is rebound.
FUNCTIONS = [
    ("chasekit.cli", "main", "cli.main", False),
    ("chasekit.parser", "parse_program", "parser.parse", False),
    ("chasekit.parser", "render_atom", "parser.render", False),
    ("chasekit.analysis", "classify", "analysis.classify", False),
    ("chasekit.chase", "run_chase", "chase.run_chase", False),
    ("chasekit.chase", "body_homomorphisms", "chase.body_hom", True),
    ("chasekit.chase", "head_satisfied", "chase.head_satisfied", False),
    ("chasekit.chase", "apply_tgd", "chase.apply_tgd", False),
    ("chasekit.chase", "apply_egd", "chase.apply_egd", False),
    ("chasekit.clouds", "blocked_saturate", "clouds.blocked_saturate", False),
    ("chasekit.clouds", "cloud_of", "clouds.cloud_of", False),
    ("chasekit.clouds", "canonicalize", "clouds.canonicalize", False),
    ("chasekit.query", "eval_cq", "query.eval_cq", False),
    ("chasekit.query", "homomorphisms", "query.hom", True),
    ("chasekit.egdsep", "blocking_chase", "egdsep.blocking_chase", False),
    ("chasekit.egdsep", "egd_failure_check", "egdsep.failure_check", False),
    ("chasekit.egdsep", "separated_answer", "egdsep.separated", False),
    ("chasekit.egdsep", "monitor_innocuousness", "egdsep.monitor", False),
]
# (module, class, method, span name) for methods patched on their class.
METHODS = [
    ("chasekit.model", "Instance", "__init__", "model.instance"),
    ("chasekit.model", "Instance", "add", "model.add"),
    ("chasekit.model", "Instance", "rewrite", "model.rewrite"),
    ("chasekit.chase", "Trigger", "of", "chase.trigger"),
    ("chasekit.clouds", "CloudStore", "put", "clouds.store_put"),
]


def chasekit_modules():
    return [m for n, m in sorted(sys.modules.items())
            if (n == "chasekit" or n.startswith("chasekit.")) and m is not None]


class Tracer:
    """Records spans for the chasekit modules loaded in this process."""

    def __init__(self):
        self.spans: List[Span] = []
        self.stack: List[Span] = []
        self.egd_bodies = set()
        self._undo: List[Tuple[object, str, object]] = []
        self._jobs = 0

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        siblings = parent.children if parent is not None else {}
        span = siblings.get(name)
        if span is None:
            span = Span(len(self.spans), name, parent,
                        parent.job if parent is not None else name)
            self.spans.append(span)
            if parent is not None:
                siblings[name] = span
        span.calls += 1
        return span

    def _time(self, span: Span, fn: Callable, *args, **kwargs):
        caller = self.stack[-1] if self.stack else None
        self.stack.append(span)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self.stack.pop()
            span.total += elapsed
            if caller is not None:
                caller.child += elapsed

    def job(self, run: Callable) -> Callable:
        """Wrap a job runner so that each job is the root of its own tree."""

        @functools.wraps(run)
        def traced(job, *args, **kwargs):
            self._jobs += 1
            root = self._open("%d:%s" % (self._jobs, job.name))
            return self._time(root, run, job, *args, **kwargs)

        return traced

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            result = self._time(span, fn, *args, **kwargs)
            if after is not None:
                after(span, args, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(body, *args, **kwargs):
            label = "chase.egd_scan" if name == "chase.body_hom" and \
                tuple(body) in self.egd_bodies else name
            span = self._open(label)
            return self._resume(span, fn(body, *args, **kwargs))

        return traced

    def _resume(self, span: Span, inner: Iterator) -> Iterator:
        try:
            while True:
                try:
                    item = self._time(span, next, inner)
                except StopIteration:
                    return
                span.counts["yields"] += 1
                yield item
        finally:
            inner.close()

    # -- counts taken from arguments and results ----------------------------

    def _after(self, name: str) -> Optional[Callable]:
        def parsed(span, args, program):
            self.egd_bodies.update(tuple(e.body) for e in program.egds)

        def chased(span, args, result):
            for step in result.steps:
                span.counts["steps_" + type(step).__name__] += 1

        def saturated(span, args, result):
            span.counts["store_entries"] += len(result.store)
            span.counts["rounds"] += result.rounds

        def truth(span, args, result):
            span.counts["true"] += bool(result)

        def duplicate(span, args, result):
            span.counts["duplicates"] += not result[2]

        def scanned(span, args, result):
            span.counts["atoms_scanned"] += len(args[0])

        def rows(span, args, result):
            span.counts["rows"] += len(result)

        def built(span, args, result):
            span.counts["atoms"] += len(args[0])

        def added(span, args, result):
            span.counts["duplicates"] += not result

        return {
            "parser.parse": parsed,
            "chase.run_chase": chased,
            "clouds.blocked_saturate": saturated,
            "chase.head_satisfied": truth,
            "chase.apply_tgd": duplicate,
            "clouds.cloud_of": scanned,
            "query.eval_cq": rows,
            "model.instance": built,
            "model.rewrite": built,
            "model.add": added,
        }.get(name)

    # -- install / uninstall ------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        try:
            for module, attr, name, is_gen in FUNCTIONS:
                original = getattr(sys.modules[module], attr)
                wrapper = self._wrap_generator(name, original) if is_gen else \
                    self._wrap(name, original, self._after(name))
                for mod in chasekit_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper)
            for module, cls_name, attr, name in METHODS:
                cls = getattr(sys.modules[module], cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._set(cls, attr, classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._set(cls, attr, self._wrap(name, raw, self._after(name)))
            yield self
        finally:
            while self._undo:
                owner, attr, value = self._undo.pop()
                setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def _sum(self, names, field: str = "calls", count: str = "") -> float:
        names = (names,) if isinstance(names, str) else names
        total = 0
        for s in self.spans:
            if s.name in names:
                if count:
                    total += s.counts[count]
                elif field == "self":
                    total += s.total - s.child
                else:
                    total += getattr(s, field)
        return total

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit); ratios are 0 when
        their base is 0."""
        s = self._sum
        hom = ("chase.body_hom", "chase.egd_scan")

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        triggers = s("chase.trigger")
        tgd_steps = s("chase.run_chase", count="steps_TgdStep")
        head = s("chase.head_satisfied")
        apply_tgd = s("chase.apply_tgd")
        adds = s("model.add")
        clouds = s("clouds.cloud_of")
        qhom = s("query.hom", count="yields")
        out = {
            "chase.body_hom.calls": (s(hom), "count"),
            "chase.body_hom.yields": (s(hom, count="yields"), "count"),
            "chase.body_hom.self_s": (s(hom, "self"), "s"),
            "chase.trigger.created": (triggers, "count"),
            "chase.steps.tgd": (tgd_steps, "count"),
            "chase.steps.egd": (s("chase.run_chase", count="steps_EgdStep"), "count"),
            "chase.trigger_useful_ratio": (ratio(tgd_steps, triggers), "ratio"),
            "chase.head_satisfied.calls": (head, "count"),
            "chase.head_satisfied.true_ratio": (
                ratio(s("chase.head_satisfied", count="true"), head), "ratio"),
            "chase.head_satisfied.self_s": (s("chase.head_satisfied", "self"), "s"),
            "chase.apply_tgd.calls": (apply_tgd, "count"),
            "chase.apply_tgd.self_s": (s("chase.apply_tgd", "self"), "s"),
            "chase.forest.duplicate_ratio": (
                ratio(s("chase.apply_tgd", count="duplicates"), apply_tgd), "ratio"),
            "chase.apply_egd.calls": (s("chase.apply_egd"), "count"),
            "chase.apply_egd.self_s": (s("chase.apply_egd", "self"), "s"),
            "chase.egd_scan_s": (s("chase.egd_scan", "self"), "s"),
            "chase.run_chase.self_s": (s("chase.run_chase", "self"), "s"),
            "model.rewrite.calls": (s("model.rewrite"), "count"),
            "model.rewrite.atoms_copied": (s("model.rewrite", count="atoms"), "count"),
            "model.instance.builds": (s("model.instance"), "count"),
            "model.instance.atoms_copied": (s("model.instance", count="atoms"), "count"),
            "model.add.calls": (adds, "count"),
            "model.add.dup_ratio": (ratio(s("model.add", count="duplicates"), adds), "ratio"),
            "egdsep.blocking_chase.self_s": (s("egdsep.blocking_chase", "self"), "s"),
            "egdsep.failure_check.self_s": (s("egdsep.failure_check", "self"), "s"),
            "egdsep.separated.self_s": (s("egdsep.separated", "self"), "s"),
            "clouds.cloud_of.calls": (clouds, "count"),
            "clouds.cloud_of.atoms_scanned": (
                s("clouds.cloud_of", count="atoms_scanned"), "count"),
            "clouds.cloud_of.self_s": (s("clouds.cloud_of", "self"), "s"),
            "clouds.canonicalize.calls": (s("clouds.canonicalize"), "count"),
            "clouds.canonicalize.self_s": (s("clouds.canonicalize", "self"), "s"),
            "clouds.store_entries": (
                s("clouds.blocked_saturate", count="store_entries"), "count"),
            "clouds.rounds": (s("clouds.blocked_saturate", count="rounds"), "count"),
            "clouds.blocked_ratio": (ratio(clouds - s("clouds.store_put"), clouds), "ratio"),
            "query.hom.calls": (s("query.hom"), "count"),
            "query.hom.yields": (qhom, "count"),
            "query.hom.self_s": (s("query.hom", "self"), "s"),
            "query.answers_per_hom": (ratio(s("query.eval_cq", count="rows"), qhom), "ratio"),
            "parser.parse.self_s": (s("parser.parse", "self"), "s"),
            "parser.render.calls": (s("parser.render"), "count"),
            "parser.render.self_s": (s("parser.render", "self"), "s"),
            "analysis.classify.calls": (s("analysis.classify"), "count"),
            "analysis.classify.self_s": (s("analysis.classify", "self"), "s"),
            "cli.job.self_s": (s("cli.main", "self"), "s"),
        }
        return out

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")
