"""Partition combinatorics.

Partitions are plain tuples of weakly decreasing positive integers; the empty
partition is ().
"""

from __future__ import annotations

from itertools import count


def check_partition(mu) -> tuple:
    mu = tuple(mu)
    for x in mu:
        if type(x) is not int:
            raise TypeError(f"partition parts must be ints, not {x!r}")
    if any(x <= 0 for x in mu):
        raise ValueError(f"partition parts must be positive: {mu}")
    if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {mu}")
    return mu


def partitions(n: int):
    """All partitions of n in reverse lexicographic order."""
    if n == 0:
        yield ()
        return
    if n < 0:
        return
    cur = [n]
    while True:
        yield tuple(cur)
        # find rightmost part > 1, decrement it, redistribute the tail
        i = len(cur) - 1
        while i >= 0 and cur[i] == 1:
            i -= 1
        if i < 0:
            return
        rest = len(cur) - i - 1 + 1  # ones after position i, plus the unit taken
        cur[i] -= 1
        cur = cur[:i + 1]
        while rest > 0:
            take = min(cur[-1], rest)
            cur.append(take)
            rest -= take


def partition_numbers():
    """p(0), p(1), p(2), ... without listing any partition, by Euler's
    pentagonal-number recurrence: p(m) is the sum over k >= 1 of
    (-1)^(k+1) * (p(m - k(3k-1)/2) + p(m - k(3k+1)/2))."""
    p = []
    for m in count():
        total = 1 if m == 0 else 0
        k = 1
        while k * (3 * k - 1) // 2 <= m:
            sign = 1 if k % 2 else -1
            total += sign * p[m - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= m:
                total += sign * p[m - k * (3 * k + 1) // 2]
            k += 1
        p.append(total)
        yield total


def transpose(mu) -> tuple:
    mu = tuple(mu)
    if not mu:
        return ()
    return tuple(sum(1 for part in mu if part >= j)
                 for j in range(1, mu[0] + 1))


def cont(mu) -> int:
    """Sum of contents j - i over the boxes (i, j) of mu, rows and columns
    1-indexed, in closed form per row: the mu_i boxes of row i have
    contents summing to mu_i(mu_i - 1)/2 - (i - 1)mu_i."""
    return sum(part * (part - 1) // 2 - (i - 1) * part
               for i, part in enumerate(mu, start=1))


def n_stat(mu) -> int:
    """n(mu) = sum (i-1) * mu_i."""
    return sum((i - 1) * part for i, part in enumerate(mu, start=1))


def is_e_regular(mu, e: int) -> bool:
    """No part repeated e or more times."""
    mu = tuple(mu)
    return all(mu.count(v) < e for v in set(mu))


def e_regular_partitions(n: int, e: int):
    return [mu for mu in partitions(n) if is_e_regular(mu, e)]


def partition_str(mu) -> str:
    """Serialization used in JSON ids, e.g. "3+2+1"; empty partition is "0"."""
    return "+".join(str(p) for p in mu) if mu else "0"


def partition_from_str(s: str) -> tuple:
    s = s.strip()
    if s in ("", "0"):
        return ()
    return check_partition(int(p) for p in s.split("+"))
