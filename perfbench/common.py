"""Helpers shared by the workload modules: op records and output digests."""

from __future__ import annotations

import hashlib
from time import perf_counter
from typing import Any, Callable

import numpy as np


def digest(value: Any) -> str:
    """SHA-256 over the exact bytes of arrays and the ``repr`` of everything else.

    ``repr`` of a float round-trips exactly, so equal digests mean bitwise
    equal results.
    """
    h = hashlib.sha256()

    def feed(part: Any) -> None:
        if isinstance(part, (tuple, list)):
            h.update(b"(")
            for item in part:
                feed(item)
            h.update(b")")
        elif isinstance(part, np.ndarray):
            h.update(str((part.dtype.str, part.shape)).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"\x00")

    feed(value)
    return h.hexdigest()


class Rep:
    """What one repetition of a workload leaves behind."""

    def __init__(self) -> None:
        self.ops = Ops()
        #: The workload's own end-to-end figures for this repetition.
        self.metrics: dict[str, float] = {}
        #: Objects the checks and the traced replay need.
        self.state: dict[str, Any] = {}


class Ops:
    """The op records of one repetition.

    An op is one user-facing call of the closed loop.  Each record keeps its
    latency, a digest of its output and, if it raised, the error.  Outputs
    stay in ``values`` for the checks that run after the timed phase.
    """

    def __init__(self) -> None:
        self.records: list[dict] = []
        self.values: list[Any] = []

    def run(self, name: str, fn: Callable[[], Any], **tags) -> Any:
        """Time ``fn()`` as one op; an exception is recorded, never raised."""
        start = perf_counter()
        try:
            value = fn()
        except Exception as exc:  # a failed op is counted, never fatal
            value, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        self.add(name, (perf_counter() - start) * 1e3, value, error=error, **tags)
        return value

    def add(self, name: str, ms: float, value: Any, error: str | None = None, **tags) -> None:
        self.records.append({"name": name, "ms": ms, "error": error, **tags})
        self.values.append(value)

    def seal(self, to_digest: Callable[[Any], Any]) -> None:
        """Digest every op's output (after the timed phase, so digests cost no time)."""
        for record, value in zip(self.records, self.values):
            record["digest"] = None if record["error"] else digest(to_digest(value))

