"""Verification report value type shared by the oracle and encoding layers."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Report:
    """Outcome of a verification run.

    ``passed`` is True only if every comparison the run asserted stayed within
    tolerance; ``details`` carries the structured evidence (states compared,
    tolerances, gate counts) and must be JSON-serializable.
    """

    passed: bool
    details: dict = field(default_factory=dict)
