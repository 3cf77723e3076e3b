"""What every workload provides: ops, rounds and a warm-up.

An op is one timed call.  ``Workload.round(i)`` returns the same list of ops
for every seed; only the inputs depend on the seed.  Each op's ``check`` runs
outside the op clock and receives the outputs of its round by op name, so
checks that compare several outputs (route agreement, the two core-EP order
tests) see them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[dict], list[str]]
    inproc: Callable[[], Any] | None = None  # cli: the same op inside this process


class Workload:
    name = ""
    children = False  # True when ops run in child processes

    def round(self, i: int) -> list[Op]:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Calls made before the first timed op; they count toward setup_s."""
