"""Monotonic deadlines, propagated through the compile pipeline.

A :class:`Deadline` is a point on the system-wide monotonic clock
(``time.monotonic``) by which a compilation should have produced an
answer.  It is *cooperative*: the pipeline threads the current deadline
through a :class:`~contextvars.ContextVar` (:func:`use_deadline` /
:func:`current_deadline`) and long-running searches — SABRE's decision
loop, the A* layer kernel — poll it and abandon their search by raising
:class:`DeadlineExceeded` instead of being killed from outside.  The
router fallback chain in :func:`repro.core.pipeline.compile_with_config`
catches that exception and retries the routing stage with a cheaper
router, so an expiring deadline degrades the answer instead of losing
it.

Because ``time.monotonic`` is system-wide (CLOCK_MONOTONIC on Linux —
the same property the batch engine's queue-wait metric relies on), a
deadline created in the service parent can cross the process boundary
into a pool worker as its absolute ``expires_mono`` reading and keep
meaning the same instant.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Mapping

__all__ = [
    "Deadline",
    "DeadlineExceeded",
    "check_budget",
    "current_deadline",
    "use_deadline",
]


def check_budget(seconds, name: str) -> float:
    """``seconds`` as a float: a time budget is a finite number >= 0.

    Raises:
        ValueError: for anything else, a bool included.  A NaN budget
            would never expire; a negative one has already expired.
    """
    if (
        isinstance(seconds, (int, float))
        and not isinstance(seconds, bool)
        and 0 <= seconds <= sys.float_info.max
    ):
        return float(seconds)
    raise ValueError(
        f"{name} must be a finite number of seconds >= 0, got {seconds!r}"
    )


class DeadlineExceeded(RuntimeError):
    """A cooperative search abandoned its work because time ran out."""


class Deadline:
    """An absolute point on the monotonic clock with a recorded budget.

    Args:
        expires_mono: Absolute ``time.monotonic`` reading at which the
            deadline expires.
        budget: The original allowance in seconds (for messages only).
    """

    __slots__ = ("expires_mono", "budget")

    def __init__(self, expires_mono: float, budget: float | None = None):
        self.expires_mono = float(expires_mono)
        self.budget = budget

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """A deadline ``seconds`` from now.

        Raises:
            ValueError: ``seconds`` is not a finite number >= 0.
        """
        seconds = check_budget(seconds, "deadline budget")
        return cls(time.monotonic() + seconds, budget=seconds)

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self.expires_mono - time.monotonic()

    def expired(self) -> bool:
        return time.monotonic() >= self.expires_mono

    def check(self, where: str = "") -> None:
        """Raise :class:`DeadlineExceeded` if the deadline has passed."""
        if self.expired():
            raise self.exceeded(where)

    def exceeded(self, where: str = "") -> DeadlineExceeded:
        """The error :meth:`check` raises, for a search that polled the
        deadline itself (the native A* kernel, on its own clock)."""
        budget = f"{self.budget}s budget" if self.budget is not None \
            else "deadline"
        suffix = f" in {where}" if where else ""
        return DeadlineExceeded(f"exceeded the {budget}{suffix}")

    def to_dict(self) -> dict:
        """JSON/pickle-able form (absolute monotonic instant)."""
        return {"expires_mono": self.expires_mono, "budget": self.budget}

    @classmethod
    def from_dict(cls, data: Mapping) -> "Deadline":
        return cls(data["expires_mono"], data.get("budget"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(remaining={self.remaining():.3f}s)"


#: The deadline governing the current compilation (None: unlimited).
_CURRENT: ContextVar[Deadline | None] = ContextVar(
    "repro-deadline", default=None
)


def current_deadline() -> Deadline | None:
    """The deadline in effect for this context, or ``None``."""
    return _CURRENT.get()


@contextmanager
def use_deadline(deadline: Deadline | None):
    """Install ``deadline`` as the current one for the ``with`` body.

    ``None`` explicitly clears any outer deadline (used by the last
    fallback router, which must always complete).
    """
    token = _CURRENT.set(deadline)
    try:
        yield deadline
    finally:
        _CURRENT.reset(token)
