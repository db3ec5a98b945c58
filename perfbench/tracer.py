"""In-memory spans around calls into the program's layers.

Spans are recorded from the benchmark's side only: at call sites the
benchmark owns, and by swapping timing wrappers into the module attributes
that the program's own callers look up.  A wrapped name that does not exist
(renamed or deleted by a later change) is listed in ``unmeasured`` instead
of failing the run, so the remaining layers keep their numbers.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.unmeasured: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner_path: str, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``owner_path`` is a module ("pkg.mod") or a class in one
        ("pkg.mod:Class"); a class attribute wraps the method for every
        instance.
        """
        module, _, cls = owner_path.partition(":")
        try:
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.unmeasured.append(name)
            return

        @functools.wraps(original)
        def timed(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, timed)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- queries over the recorded spans ----------------------------------

    def within(self, s: Span, root: Span) -> bool:
        parent = s.parent
        while parent is not None:
            if parent == root.id:
                return True
            parent = self.spans[parent].parent
        return False

    def total(self, name: str, root: Span, direct: bool = False) -> float | None:
        """Summed seconds of the ``name`` spans below ``root`` (only its
        direct children when ``direct``); None when ``name`` was unmeasured."""
        if name in self.unmeasured:
            return None
        return sum(s.seconds for s in self.spans if s.name == name and (
            s.parent == root.id if direct else self.within(s, root)))

    def self_seconds(self, s: Span) -> float:
        """Span duration minus the time its direct children cover."""
        return s.seconds - sum(c.seconds for c in self.spans if c.parent == s.id)

    def as_records(self) -> list[dict]:
        return [{"id": s.id, "name": s.name, "parent": s.parent,
                 "start": s.start, "end": s.end} for s in self.spans]
