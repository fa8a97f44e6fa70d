"""Partition combinatorics: transposes, containment, hook constraints, and
the truncation map onto (m + n)-tuples."""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache


class UsageError(ValueError):
    """A request outside what the package serves: a desk-scale bound, an
    unpaired option or a non-hook argument.  The CLI exits 2 on it, and on
    no other ValueError."""


class NotAHook(UsageError):
    """Partition violates the (p, q)-hook constraint: a usage error."""


def _exact_ints(values: tuple) -> tuple:
    """The values, if each is an int; a bool, a float or anything else
    raises."""
    for v in values:
        if type(v) is not int:
            raise TypeError(f"expected an exact integer, got {type(v).__name__}")
    return values


class _ValidatedRecord:
    """Base of the namedtuple records whose __new__ checks its fields: the
    namedtuple helpers that rebuild a record go through that check too."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})

    __replace__ = _replace  # copy.replace on Python 3.13+


class HookParams(_ValidatedRecord, namedtuple("HookParams", "p q")):
    """Hook shape: p unconstrained rows, every later row of length <= q."""

    __slots__ = ()

    def __new__(cls, p: int, q: int) -> "HookParams":
        _exact_ints((p, q))
        if p < 1 or q < 1:
            raise ValueError(f"hook parameters must be positive, got ({p}, {q})")
        return super().__new__(cls, p, q)


class Partition(_ValidatedRecord, namedtuple("Partition", "parts")):
    """Weakly decreasing nonnegative integers; trailing zeros are stripped so
    structural equality is mathematical equality.  Iteration, length and
    membership range over the parts."""

    __slots__ = ()

    def __new__(cls, parts=()) -> "Partition":
        parts = _exact_ints(tuple(parts))
        if any(v < 0 for v in parts):
            raise ValueError(f"negative part in {parts!r}")
        n = len(parts)
        while n and parts[n - 1] == 0:
            n -= 1
        parts = parts[:n]
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts not weakly decreasing: {parts!r}")
        return super().__new__(cls, parts)

    def __reduce__(self) -> tuple:
        # iteration yields the parts, so copy and pickle (every protocol)
        # must not rebuild from tuple(self)
        return (type(self), (self.parts,))

    def _asdict(self) -> dict:
        return {"parts": self.parts}

    @classmethod
    def of(cls, *parts: int) -> "Partition":
        return cls(parts)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse a comma-separated part list; "" and "∅" denote the empty
        partition."""
        text = text.strip()
        if text in ("", "∅"):
            return cls()
        return cls(tuple(int(tok) for tok in text.split(",")))

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.parts) if self.parts else "∅"

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __contains__(self, v) -> bool:
        return v in self.parts

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def part(self, i: int) -> int:
        """Row length, 1-based, zero beyond the last row."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def transpose(self) -> "Partition":
        if not self.parts:
            return Partition()
        cols = [0] * self.parts[0]
        for v in self.parts:
            for j in range(v):
                cols[j] += 1
        return Partition(tuple(cols))

    def contains(self, other: "Partition") -> bool:
        return all(self.part(i + 1) >= v for i, v in enumerate(other.parts))

    def is_hook(self, hp: HookParams) -> bool:
        return self.part(hp.p + 1) <= hp.q

    def require_hook(self, hp: HookParams) -> None:
        """Raise NotAHook unless this is a (p, q)-hook partition."""
        if not self.is_hook(hp):
            raise NotAHook(f"{self} is not a ({hp.p}, {hp.q})-hook partition")

    def boxes(self):
        """Yield the diagram cells (i, j), 1-based."""
        for i, v in enumerate(self.parts, start=1):
            for j in range(1, v + 1):
                yield i, j

    def dominates(self, other: "Partition") -> bool:
        """Dominance order; only comparable at equal size."""
        if self.size != other.size:
            return False
        run_self = run_other = 0
        for i in range(1, max(len(self.parts), len(other.parts)) + 1):
            run_self += self.part(i)
            run_other += other.part(i)
            if run_self < run_other:
                return False
        return True


def sort_key(lam: Partition) -> tuple:
    """(size, reverse-lexicographic) enumeration key."""
    return (lam.size, tuple(-v for v in lam.parts))


def partitions_of(d: int) -> tuple[Partition, ...]:
    """All partitions of d in reverse-lexicographic order."""
    if d < 0:
        raise ValueError("size must be nonnegative")
    return _hooks_exact(d, d, d)


@lru_cache(maxsize=None)
def _hooks_exact(p: int, q: int, d: int) -> tuple[Partition, ...]:
    """Partitions of d whose rows after the p-th have length <= q, depth
    first with the largest next row first, which is reverse-lexicographic
    order.  Every row fits under the cap (q >= 1), so no branch is a dead
    end; one prefix list is extended and cut back in place, and a tail of
    rows of length 1 is written at once, so the cost follows the output,
    not p(d).  An explicit stack keeps the search off the interpreter's."""
    if not d:
        return (Partition(),)
    out = []
    prefix = []
    remaining = d
    # one iterator per open row over its lengths, largest first; the first
    # row's has no prefix row to cut back when it runs out
    stack = [iter(range(d, 0, -1))]
    while stack:
        v = next(stack[-1], 0)
        if not v:
            stack.pop()
            if prefix:
                remaining += prefix.pop()
        elif v == remaining:
            out.append(Partition(tuple(prefix) + (v,)))
        else:
            prefix.append(v)
            remaining -= v
            limit = min(v, remaining, q if len(prefix) >= p else d)
            if limit > 1:
                stack.append(iter(range(limit, 0, -1)))
            else:
                # the one way on is a column of ones
                out.append(Partition(tuple(prefix) + (1,) * remaining))
                remaining += prefix.pop()
    return tuple(out)


def enumerate_hooks(hp: HookParams, d: int, mode: str = "exact") -> list[Partition]:
    """(p, q)-hook partitions of size d ("exact") or of size <= d ("upto"),
    in (size, reverse-lexicographic) order, duplicate-free."""
    if d < 0:
        raise ValueError("size bound must be nonnegative")
    if mode == "exact":
        return list(_hooks_exact(hp.p, hp.q, d))
    if mode == "upto":
        out: list[Partition] = []
        for e in range(d + 1):
            out.extend(_hooks_exact(hp.p, hp.q, e))
        return out
    raise ValueError(f"unknown enumeration mode: {mode!r}")


def lambda_natural(lam: Partition, m: int, n: int) -> tuple[int, ...]:
    """(lam_1 .. lam_m, <lam'_1 - m>, ..., <lam'_n - m>) where <x> = max(x, 0);
    the tail lists the column lengths left after removing the first m rows."""
    lam.require_hook(HookParams(m, n))
    lamt = lam.transpose()
    head = tuple(lam.part(i) for i in range(1, m + 1))
    tail = tuple(max(lamt.part(j) - m, 0) for j in range(1, n + 1))
    return head + tail
