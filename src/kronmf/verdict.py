"""Verdict record shared by the multiplicity-free predicates."""

from __future__ import annotations

from typing import NamedTuple


class _Verdict(NamedTuple):
    multiplicity_free: bool
    clause: str | None = None
    normalization: tuple[str, ...] = ()


class MfVerdict(_Verdict):
    """Outcome of a multiplicity-free test.

    ``clause`` names the matched condition and is present exactly when
    the verdict is positive.  ``normalization`` records the conjugations
    or reductions applied to the operands before the clause matched.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        if self.multiplicity_free and self.clause is None:
            raise ValueError("positive verdict requires a clause tag")
        if not self.multiplicity_free and self.clause is not None:
            raise ValueError("negative verdict must not carry a clause tag")

    def __bool__(self) -> bool:
        return self.multiplicity_free

    def reduced(self, tag: str, extra: tuple[str, ...] = ()) -> "MfVerdict":
        """This verdict under the reduction tag, its normalization extended by extra."""
        if not self:
            return self
        return MfVerdict(True, f"{tag}:{self.clause}", self.normalization + extra)


MF_NO = MfVerdict(False)
