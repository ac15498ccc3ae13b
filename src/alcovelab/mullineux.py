"""The Mullineux involution on e-regular partitions, twice.

Two structurally independent computations are kept side by side: the rim
peeling / symbol algorithm (`mullineux`) and the good-box crystal recursion
(`mullineux_oracle`).  The test suite requires them to agree on the full
exhaustive range; neither is trusted alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .arith import LemmaError
from .partitions import (check_partition, e_regular_partitions, is_e_regular,
                         partition_str, partitions, transpose)


def _require_regular(mu, e):
    mu = check_partition(mu)
    if e < 2:
        raise ValueError("e must be >= 2")
    if not is_e_regular(mu, e):
        bad = next(v for v in mu if mu.count(v) >= e)
        raise ValueError(
            f"partition {partition_str(mu)} is not {e}-regular: part {bad} "
            f"repeats {mu.count(bad)} times")
    return mu


def rim_path(mu):
    """Rim boxes (i, j) ordered from the top right to the bottom left."""
    out = []
    k = len(mu)
    for i in range(1, k + 1):
        below = mu[i] if i < k else 0
        for j in range(mu[i - 1], max(below, 1) - 1, -1):
            out.append((i, j))
    return out


def e_rim(mu, e):
    """The e-rim: segments of e rim boxes; when a segment ends inside a row
    the next segment starts at the first rim box of the following row."""
    rim = rim_path(mu)
    taken = []
    idx = 0
    while idx < len(rim):
        seg = rim[idx:idx + e]
        taken.extend(seg)
        if idx + e >= len(rim):
            break
        last_row = seg[-1][0]
        idx = next((j for j in range(idx + e, len(rim))
                    if rim[j][0] > last_row), None)
        if idx is None:
            break
    return taken


def remove_boxes(mu, boxes):
    counts = {}
    for i, _ in boxes:
        counts[i] = counts.get(i, 0) + 1
    parts = [p - counts.get(i, 0) for i, p in enumerate(mu, start=1)]
    out = tuple(p for p in parts if p > 0)
    return check_partition(out)


@dataclass(frozen=True)
class MullineuxSymbol:
    """Column pairs (a_i, r_i): e-rim size and row count per peeling step."""

    columns: tuple

    def __post_init__(self):
        object.__setattr__(self, "columns",
                           tuple((int(a), int(r)) for a, r in self.columns))

    @classmethod
    def of(cls, mu, e) -> "MullineuxSymbol":
        cols = []
        cur = tuple(mu)
        while cur:
            rim = e_rim(cur, e)
            cols.append((len(rim), len(cur)))
            cur = remove_boxes(cur, rim)
        return cls(cols)

    def conjugated(self, e) -> "MullineuxSymbol":
        """The image symbol: s_i = a_i - r_i, plus 1 unless e divides a_i."""
        return MullineuxSymbol(
            (a, a - r + (0 if a % e == 0 else 1)) for a, r in self.columns)


@cache
def _symbol_table(n: int, e: int) -> dict:
    """Peeling symbols of all e-regular partitions of n; the peeling map is
    injective on them, so this inverts symbol -> partition."""
    table = {}
    for nu in e_regular_partitions(n, e):
        table[MullineuxSymbol.of(nu, e)] = nu
    return table


def mullineux(mu, e: int) -> tuple:
    """Mullineux image by the rim peeling / symbol algorithm."""
    mu = _require_regular(mu, e)
    if not mu:
        return ()
    target = MullineuxSymbol.of(mu, e).conjugated(e)
    try:
        return _symbol_table(sum(mu), e)[target]
    except KeyError:
        raise LemmaError(
            f"no {e}-regular partition carries the conjugated symbol of "
            f"{partition_str(mu)}; the rim peeling is inconsistent") from None


def _residue(i, j, e):
    return (j - i) % e


def _signature(mu, i, e):
    """Addable/removable boxes of residue i, read bottom row to top row."""
    k = len(mu)
    sig = []
    for row in range(k + 1, 0, -1):
        if row == k + 1:
            if _residue(row, 1, e) == i:
                sig.append(("A", row))
            continue
        part = mu[row - 1]
        can_add = row == 1 or mu[row - 2] > part
        if can_add and _residue(row, part + 1, e) == i:
            sig.append(("A", row))
        below = mu[row] if row < k else 0
        if part > below and _residue(row, part, e) == i:
            sig.append(("R", row))
    # cancel each removable immediately followed by an addable
    stack = []
    for token in sig:
        if token[0] == "A" and stack and stack[-1][0] == "R":
            stack.pop()
        else:
            stack.append(token)
    return stack


def good_add(mu, i, e):
    """f~_i: add the good addable box of residue i, or None."""
    reduced = _signature(mu, i, e)
    adds = [t for t in reduced if t[0] == "A"]
    if not adds:
        return None
    row = adds[-1][1]
    k = len(mu)
    if row == k + 1:
        return tuple(mu) + (1,)
    return check_partition(tuple(p + 1 if r == row else p
                                 for r, p in enumerate(mu, start=1)))


def good_remove(mu, i, e):
    """e~_i: remove the good removable box of residue i, or None."""
    reduced = _signature(mu, i, e)
    rems = [t for t in reduced if t[0] == "R"]
    if not rems:
        return None
    row = rems[0][1]
    parts = tuple(p - 1 if r == row else p for r, p in enumerate(mu, start=1))
    return check_partition(tuple(p for p in parts if p > 0))


@cache
def _mullineux_crystal(mu: tuple, e: int) -> tuple:
    if not mu:
        return ()
    for i in range(e):
        nu = good_remove(mu, i, e)
        if nu is not None:
            img = good_add(_mullineux_crystal(nu, e), (-i) % e, e)
            if img is None:
                raise LemmaError(
                    "crystal recursion failed: no good addable box of the "
                    "negated residue")
            return img
    raise LemmaError(f"no good removable box on {mu}")


def mullineux_oracle(mu, e: int) -> tuple:
    """Mullineux image by the good-box crystal recursion: peeling a good
    box of residue i commutes with adding a good box of residue -i."""
    mu = _require_regular(mu, e)
    return _mullineux_crystal(mu, e)


VARIANTS = ("plain", "transpose", "mullineux+transpose")


def wc_bijection_hilb(n: int, b: int, variant: str = "plain") -> dict:
    """Wall-crossing label map for the Hilbert-scheme case.

    The b-regular support is mapped through the Mullineux involution (and
    transpose, per variant); labels outside it are delegated by the source
    material to an external construction and are emitted with provenance
    EXTERNAL rather than guessed.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if not 2 <= b <= n:
        raise ValueError(f"b must satisfy 2 <= b <= n, got {b}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    table = {}
    for mu in partitions(n):
        key = partition_str(mu)
        if variant == "transpose":
            table[key] = {"image": partition_str(transpose(mu)),
                          "provenance": "transpose"}
            continue
        if not is_e_regular(mu, b):
            table[key] = {"image": None, "provenance": "EXTERNAL"}
            continue
        img = mullineux(mu, b)
        if variant == "mullineux+transpose":
            img = transpose(img)
            prov = "mullineux+transpose"
        else:
            prov = "mullineux"
        table[key] = {"image": partition_str(img), "provenance": prov}
    return {"n": n, "b": b, "variant": variant, "map": table}
