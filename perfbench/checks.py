"""Correctness failures and operation accounting shared by the workloads."""

from __future__ import annotations


class CheckFailed(Exception):
    """An output did not match its reference; the run reports no numbers."""


class Ops:
    """Attempted and failed operations, per phase and by failure code."""

    def __init__(self) -> None:
        self.phases: "dict[str, dict]" = {}

    def note(
        self,
        phase: str,
        attempted: int = 1,
        failed: "dict[str, int] | None" = None,
    ) -> None:
        """Count ``attempted`` operations of ``phase`` and the failures
        among them by code (a failure of an operation counted earlier
        comes with ``attempted=0``)."""
        row = self.phases.setdefault(
            phase, {"attempted": 0, "failed": 0, "codes": {}}
        )
        row["attempted"] += attempted
        for code, n in (failed or {}).items():
            row["failed"] += n
            row["codes"][code] = row["codes"].get(code, 0) + n

    @property
    def attempted(self) -> int:
        return sum(r["attempted"] for r in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(r["failed"] for r in self.phases.values())
