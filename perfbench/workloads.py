"""The four seeded workloads of the alcove-lab benchmark.

Each workload has a `setup` that builds instances and generates every input
from the seed, and a `run` that makes the timed library calls through
`Ops.call`, one top-level call per operation.  Outputs that do not depend
on call history go into the pass digest; everything else is checked in
place.  DESIGN.md explains the choice of each workload.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
from contextlib import redirect_stdout
from fractions import Fraction as F

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
          67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131)
PRIMES_NEAR_100 = (89, 97, 101, 103, 107, 109, 113)


def q(x) -> str:
    x = F(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def qs(v) -> list:
    return [q(c) for c in v]


def pair(alpha, x) -> F:
    return sum((F(a) * F(b) for a, b in zip(alpha, x)), F(0))


def floor(x: F) -> int:
    return x.numerator // x.denominator


def candidate_bounds(walls) -> int:
    """Bounds real_alcove_of starts from: one below and one above the point
    for each class of sigma_tilde mod Z on each wall."""
    return sum(2 * len({s - floor(s) for s in w.sigma_tilde}) for w in walls)


def is_regular(x, walls) -> bool:
    """Off every hyperplane <alpha, .> in sigma_tilde + Z."""
    for w in walls:
        t = pair(w.alpha, x)
        if any((t - s).denominator == 1 for s in w.sigma_tilde):
            return False
    return True


def off_p_walls(x, p, walls) -> bool:
    """Off every p-hyperplane <alpha, .> in (p+1)*sigma + p*Z."""
    for w in walls:
        t = pair(w.alpha, x)
        if any(((t - (p + 1) * s) / p).denominator == 1 for s in w.sigma_tilde):
            return False
    return True


def regular_point(rng, walls, rank, lo, hi):
    """A seeded rational point with coordinates in [lo, hi), off all walls."""
    while True:
        den = rng.randrange(50, 400)
        x = tuple(F(rng.randrange(lo * den, hi * den), den) for _ in range(rank))
        if is_regular(x, walls):
            return x


def lattice_point(rng, walls, rank, p, radius):
    while True:
        x = tuple(F(rng.randint(-radius, radius)) for _ in range(rank))
        if off_p_walls(x, p, walls):
            return x


def in_p_alcove(pa, x, p, walls) -> bool:
    wm = {w.id: w for w in walls}
    return all(orient * pair(wm[wid].alpha, x) > rhs.eval_at(p)
               for wid, orient, rhs in pa.inequalities)


def inside_alcove(A, x, walls) -> bool:
    """x in the interior of A, from A's (wall, offset, sense) list."""
    wm = {w.id: w for w in walls}
    for wid, m, sense in A.inequalities:
        t = pair(wm[wid].alpha, x)
        if not (t > m if sense == ">=" else t < m):
            return False
    return True


def canonical_alcove(lib, A, walls):
    """The lattice translate of A whose vertex average lies in [0,1)^d."""
    verts = lib.polyhedra.vertices(A.constraints(walls), A.rank)
    center = [sum(v[j] for v in verts) / len(verts) for j in range(A.rank)]
    return A.translate(tuple(-floor(c) for c in center), walls)


def translate_face(lib, face, A_t, v, walls):
    """The face of A_t = A + v that corresponds to `face` of A."""
    wm = {w.id: w for w in walls}
    active = tuple(sorted(((wid, m + pair(wm[wid].alpha, v), s)
                           for wid, m, s in face.active),
                          key=lambda t: (t[0], t[2], t[1])))
    shift = lambda u: tuple(a + b for a, b in zip(u, v))
    return lib.Face(parent=A_t, active=active, codim=face.codim,
                    witness=shift(face.witness),
                    vertex_set=tuple(shift(u) for u in face.vertex_set))


# --------------------------------------------------------------- alcove_sweep

# Sizes put the median operation inside the weyl_a(4) cluster and the tail
# inside the weyl_a(5) one, so that every seed lands on like operations.
SWEEP = {  # (family, n): (regular points, p_membership lattice points) per pass
    "full": {("weyl_a", 3): (12, 3), ("weyl_a", 4): (12, 3), ("weyl_a", 5): (4, 4),
             ("hilb", 8): (4, 1), ("hilb", 10): (2, 1), ("hilb", 12): (2, 1),
             ("hilb", 14): (1, 1)},
    "smoke": {("weyl_a", 3): (2, 1), ("hilb", 4): (2, 1)},
}
SWEEP_VALIDATE = {  # (family, n) of the validate_p calls, two alcoves each
    "full": (("weyl_a", 4), ("weyl_a", 5), ("hilb", 10)),
    "smoke": (("hilb", 4),),
}


def setup_alcove_sweep(lib, rng, mode, workdir):
    plan = []
    insts = {}
    for (family, n), (count, lattice) in SWEEP[mode].items():
        inst = insts[family, n] = lib.builtin_instance(family, n=n)
        for _ in range(count):
            shift = rng.randint(-3, 3)
            plan.append(("alcove", inst, regular_point(
                rng, inst.walls, inst.rank, shift, shift + 1)))
        for _ in range(lattice):
            p = rng.choice(PRIMES_NEAR_100)
            x = lattice_point(rng, inst.walls, inst.rank, p, 150)
            plan.append(("membership", inst, x, p, rng.random()))
    rng.shuffle(plan)
    validate = [(insts[key], rng.choice(PRIMES_NEAR_100))
                for key in SWEEP_VALIDATE[mode]]
    return {"plan": plan, "validate": validate}


def lattice_walk(pa, x, p, generators, walls, rng, steps=3):
    """A lattice point a few +-generator steps from x, every step inside
    the p-alcove (weyl_a p-alcoves near p = 100 are wide)."""
    moves = [tuple(sign * c for c in g) for g in generators for sign in (1, -1)]
    seen = {x}
    for _ in range(steps):
        inside = [y for y in (tuple(a + b for a, b in zip(x, m)) for m in moves)
                  if y not in seen and in_p_alcove(pa, y, p, walls)]
        if not inside:
            break
        x = rng.choice(inside)
        seen.add(x)
    return x


def run_alcove_sweep(lib, state, ops):
    alcoves = {}
    for item in state["plan"]:
        kind, inst = item[0], item[1]
        walls = inst.walls
        if kind == "alcove":
            x = item[2]
            ok, A = ops.call(f"real_alcove_of {inst.name}", lib.real_alcove_of, x, walls)
            if not ok:
                continue
            ops.check(inside_alcove(A, x, walls), f"{inst.name}: alcove misses {qs(x)}")
            ops.kept(A, walls)
            alcoves.setdefault(inst.name, []).append(A)
            ok, faces = ops.call(f"faces_of {inst.name}", lib.faces_of, A, walls)
            if not ok:
                continue
            ops.check(faces[0].codim == 0 and all(
                f.codim > 0 for f in faces[1:]), f"{inst.name}: face order")
            ops.out("alcove", inst.name, qs(x), A.to_json(),
                    [[f.codim, qs(f.witness), [[w, q(m), s] for w, m, s in f.active]]
                     for f in faces])
            continue
        x, p, walk_seed = item[2], item[3], item[4]
        ok, pa = ops.call(f"p_membership {inst.name}", lib.p_membership, x, p, walls)
        if not ok:
            continue
        ops.check(in_p_alcove(pa, x, p, walls), f"{inst.name}: p-alcove misses {qs(x)}")
        ops.out("membership", inst.name, qs(x), p, pa.to_json())
        if inst.meta["points"] != "permutations":
            continue   # hilb p-alcoves near p = 100 hold too few lattice points
        target = lattice_walk(pa, x, p, inst.generators, walls, random.Random(walk_seed))
        ok, path = ops.call(f"translation_path {inst.name}", lib.translation_path, x,
                            target, pa, p, inst.generators, walls)
        if not ok:
            continue
        end = x
        for s in path:
            end = tuple(a + b for a, b in zip(end, s))
            ops.check(in_p_alcove(pa, end, p, walls), f"{inst.name}: path leaves P")
        ops.check(end == target, f"{inst.name}: path misses its target")
        ops.out("path", inst.name, qs(x), qs(target), [qs(s) for s in path])
    for inst, p in state["validate"]:
        chosen = alcoves.get(inst.name, [])[:2]
        ok, report = ops.call(f"validate_p {inst.name}", lib.validate_p, p, inst, alcoves=chosen)
        if ok:
            ops.check("passed" in report, "validate_p report has no verdict")
            ops.out("validate", inst.name, p, report)


# ----------------------------------------------------------- compat_translates

# (family, n): (base alcoves, queries per class, opposite_pair samples).
# hilb base alcoves are seeded.  weyl_a uses its fundamental alcove, whose
# cold scans cost the same on every seed (between alcoves they differ 4x),
# with opposite_pair on each of its facets.  The weyl_a(5) hits put the
# median operation among like ones, and its cold scans the tail.
COMPAT = {
    "full": {("hilb", 3): (2, 4, 1), ("hilb", 4): (2, 4, 1), ("hilb", 5): (2, 4, 1),
             ("hilb", 6): (2, 4, 1), ("hilb", 7): (2, 4, 1), ("hilb", 8): (2, 4, 1),
             ("weyl_a", 4): (None, 8, None), ("weyl_a", 5): (None, 8, None)},
    "smoke": {("hilb", 3): (2, 4, 1), ("weyl_a", 3): (None, 4, None)},
}
HILB_TRANSLATE = 45
FAR_TRANSLATE = 32          # from here a face can need a box radius above 30
WEYL_TRANSLATE = 50


def class_key(inst, A, face):
    """(alcove, face) moved by the lattice vector that puts the face witness
    in [0,1)^d: lattice translates, one compat cache class, share a key."""
    alphas = {w.id: w.alpha for w in inst.walls}
    v = tuple(-floor(c) for c in face.witness)

    def move(ineqs):
        return tuple(sorted((wid, m + pair(alphas[wid], v), s) for wid, m, s in ineqs))
    return inst.name, move(A.inequalities), move(face.active)


def setup_compat_translates(lib, rng, mode, workdir):
    classes = []            # (instance, base alcove, face, queries)
    opposite_samples = {}
    for (family, n), (count, asks, opposite) in COMPAT[mode].items():
        inst = lib.builtin_instance(family, n=n)
        walls = inst.walls
        opposite_samples[inst.name] = opposite
        if count is None:   # x_i > 0, sum x_i < 1: the fundamental alcove
            fundamental = tuple(F(1, 2 * inst.rank + 1) for _ in range(inst.rank))
            bases = [lib.real_alcove_of(fundamental, walls)]
        else:
            seen = {}
            while len(seen) < count:
                x = regular_point(rng, walls, inst.rank, 0, 1)
                A = canonical_alcove(lib, lib.real_alcove_of(x, walls), walls)
                seen.setdefault(A.inequalities, A)
            bases = [seen[k] for k in sorted(seen, key=str)]
        for A in bases:
            classes.extend((inst, A, f, asks) for f in lib.faces_of(A, walls))
    order = [c for c, cls in enumerate(classes) for _ in range(cls[3])]
    rng.shuffle(order)
    queries = []
    first = set()
    for c in order:
        inst, A, face, _ = classes[c]
        if inst.meta["points"] == "partitions" and c not in first and face.codim:
            # first asked far out: on one side of the face that needs a box
            # radius above 30, so about half of these queries fail
            v = (rng.choice((1, -1)) * rng.randint(FAR_TRANSLATE, HILB_TRANSLATE),)
        elif inst.meta["points"] == "partitions":
            v = (rng.randint(-HILB_TRANSLATE, HILB_TRANSLATE),)
        elif c not in first:
            v = (0,) * inst.rank   # a far cold scan on weyl_a(5) outlasts a run
        else:
            v = tuple(rng.randint(-WEYL_TRANSLATE, WEYL_TRANSLATE)
                      for _ in range(inst.rank))
        A_t = A.translate(v, inst.walls)
        queries.append([c, v, inst, A_t, translate_face(lib, face, A_t, v, inst.walls),
                        c not in first])
        first.add(c)
    # opposite_pair runs on a sample of first queries: a weyl_a opposite pair
    # may scan cold on the far side, which is short only near the origin
    opposite = set()
    for name, count in opposite_samples.items():
        eligible = [i for i, qr in enumerate(queries)
                    if qr[5] and qr[4].codim > 0 and qr[2].name == name]
        if count is None:   # every facet
            opposite.update(i for i in eligible if queries[i][4].codim == 1)
        else:
            opposite.update(rng.sample(eligible, min(count, len(eligible))))
    for i, qr in enumerate(queries):
        qr[5] = i in opposite
    keys = {class_key(inst, A, f): c for c, (inst, A, f, _) in enumerate(classes)}
    return {"queries": queries, "classes": len(classes), "keys": keys}


def run_compat_translates(lib, state, ops):
    # Classes the library may hold in its cache: answered here, or reached
    # by opposite_pair's own search.  A later answer for them may be the
    # cached one, so its lambda stays out of the digest.
    cached = set()
    for i, (c, v, inst, A, face, opposite) in enumerate(state["queries"]):
        walls = inst.walls
        cold = c not in cached
        ok, result = ops.call(f"find_compatible {inst.name}", lib.find_compatible,
                              A, face, walls)
        if not ok:
            ops.out("failed", i, type(result).__name__)
            continue
        cached.add(c)
        if cold:   # the history-free lex-min for this translate
            ops.out("lambda", c, qs(v), qs(result.lam), qs(result.mu))
        ok, report = ops.call(f"verify_compatible {inst.name}", lib.verify_compatible,
                              result, walls)
        if ok:
            ops.check(report["passed"], f"query {i}: verify_compatible failed")
        if not opposite:
            continue
        ok, res = ops.call(f"opposite_pair {inst.name}", lib.opposite_pair,
                           A, face, result, walls)
        if not ok:
            ops.out("failed", i, type(res).__name__)
            continue
        minus, chi = res
        ops.check(all(F(x).denominator == 1 for x in chi), f"query {i}: chi not integral")
        if cold and minus.lam == tuple(2 * m - l for m, l in zip(result.mu, result.lam)):
            ops.out("chi", c, qs(v), qs(chi))   # the reflected candidate 2 mu - lambda
        other = state["keys"].get(class_key(inst, minus.alcove, minus.face))
        if other is not None:
            cached.add(other)
        ok, report = ops.call(f"verify_compatible {inst.name}", lib.verify_compatible,
                              minus, walls)
        if ok:
            ops.check(report["passed"], f"query {i}: opposite pair fails verification")
    ops.props["compat.repeat_share"] = 1 - state["classes"] / len(state["queries"])


# ---------------------------------------------------------------- label_orders

# hw_order + phw_axiom_check on hilb(n) at p, window 3p, lambda' = 3/(p+1)
# and window start -p, moved by the seed only in ways that keep each
# operation's cost: lambda' by multiples of p/(p+1) and the window by whole
# periods leave every residue, so the poset is the same up to a shift of
# characters.  hilb(12) at 13 (3003 labels, 335,829 closure pairs) runs
# first in its fresh process, so that the pass's peak RSS is that case's.
ORDERS = {
    "full": [(12, 13), (8, 11), (9, 13), (10, 11), (11, 13)],
    "smoke": [(5, 7), (4, 5)],
}
PREORDERS = {"full": (6, 7, 8, 9, 10), "smoke": (3, 4)}   # hilb(n), point face 1/n
PREORDER_M = 2
WALLCROSS = {  # (n, b, variant)
    "full": ((14, 3, "plain"), (17, 4, "mullineux+transpose"), (20, 5, "plain")),
    "smoke": ((6, 3, "plain"),),
}
ORACLE_SAMPLE = 60        # puts the median operation among the oracle checks


def smallest_prime(lo, divisor):
    """Smallest listed prime p >= lo with divisor | p + 1."""
    return next(p for p in PRIMES if p >= lo and (p + 1) % divisor == 0)


def setup_label_orders(lib, rng, mode, workdir):
    orders = []
    for n, p in ORDERS[mode]:
        lam = (F(3 + p * rng.randint(0, 3), p + 1),)
        z1 = p * rng.randint(-3, 1)
        orders.append((lib.builtin_instance("hilb", n=n), lam, p, (z1, z1 + 3 * p)))
    preorders = []
    for n in PREORDERS[mode]:
        # the point face 1/n of the alcove above it, so that every seed
        # meets the same prime and the same sizes
        inst = lib.builtin_instance("hilb", n=n)
        point = F(1, n)
        A = lib.real_alcove_of((point + F(1, 2 * n * n),), inst.walls)
        face = next(f for f in lib.faces_of(A, inst.walls) if f.witness == (point,))
        preorders.append((inst, A, face, smallest_prime(11, n), rng.randint(0, 3),
                          rng.randint(-5, 5)))
    return {"orders": orders, "preorders": preorders,
            "wallcross": WALLCROSS[mode], "oracle_rng": rng.random()}


def poset_digest(poset, inst):
    """sha256 of the labels, covers and blocks, streamed, so that hashing a
    large poset adds little to the pass's peak RSS."""
    h = hashlib.sha256()
    name = inst.point_str
    for label in poset.labels:
        h.update(f"{name(label.point)}|{label.kappa}:{poset.blocks[label]};".encode())
    for a, b in poset.covers:
        h.update(f"{name(a.point)}|{a.kappa}<{name(b.point)}|{b.kappa};".encode())
    return h.hexdigest()


def run_label_orders(lib, state, ops):
    labels = closure_pairs = pairs_checked = 0
    for inst, lam, p, window in state["orders"]:
        ok, poset = ops.call(f"hw_order {inst.name}", lib.hw_order, inst, lam, p, window)
        if not ok:
            continue
        ok, report = ops.call(f"phw_axiom_check {inst.name}", lib.phw_axiom_check, poset,
                              2 * len(inst.points) * p)
        if not ok:
            continue
        labels += len(poset.labels)
        closure_pairs += sum(len(s) for s in poset.closure.values())
        ops.out("phw", inst.name, qs(lam), p, list(window),
                poset_digest(poset, inst), report)
        del poset
    for inst, A, face, p, shift_index, k in state["preorders"]:
        walls = inst.walls
        ok, cp = ops.call("find_compatible", lib.find_compatible, A, face, walls)
        if not ok:
            continue
        ops.out("pair", inst.name, qs(cp.lam), qs(cp.mu))
        m = PREORDER_M
        ok, pre = ops.call("ss_preorder", lib.ss_preorder, inst, cp, (-m, m))
        if not ok:
            continue
        ok, classes = ops.call("equivalence_classes", lib.equivalence_classes, pre)
        if ok:
            ops.out("classes", [[f"{inst.point_str(l.point)}|{l.kappa}" for l in cls]
                                for cls in classes])
        kappas = sorted(l.kappa.eval_at(p) for l in pre.labels)
        z1 = floor(kappas[len(kappas) // 2]) - 3 * p // 2
        ok, poset = ops.call("hw_order", lib.hw_order, inst, cp.p_point(p), p,
                             (z1, z1 + 3 * p))
        if ok:
            labels += len(poset.labels)
            ok, report = ops.call("order_compat_check", lib.order_compat_check,
                                  poset, pre, p)
            if ok:
                pairs_checked += report["pairs_checked"]
                closure_pairs += sum(len(s) for s in poset.closure.values())
                ops.out("compat_chain", inst.name, p, z1, report)
            del poset
        i = shift_index % (len(pre.classes) - 1)
        ok, image = ops.call("interval_image", lib.interval_image, pre,
                             pre.classes[i:i + 2], (k,))
        if ok:
            ops.out("interval", [[f"{inst.point_str(l.point)}|{l.kappa}" for l in cls]
                                 for cls in image])
    rng = random.Random(state["oracle_rng"])
    for n, b, variant in state["wallcross"]:
        ok, table = ops.call("wc_bijection_hilb", lib.wc_bijection_hilb, n, b, variant)
        if not ok:
            continue
        ops.out("wallcross", n, b, variant, table)
        regular = sorted(k for k, e in table["map"].items()
                         if e["provenance"].startswith("mullineux"))
        for key in rng.sample(regular, min(ORACLE_SAMPLE, len(regular))):
            mu = lib.partition_from_str(key)
            ok, image = ops.call("mullineux_oracle", lib.mullineux_oracle, mu, b)
            if not ok:
                continue
            if variant == "mullineux+transpose":
                image = lib.transpose(image)
            ops.check(lib.partition_str(image) == table["map"][key]["image"],
                      f"wallcross {n}/{b}: {key} disagrees with the crystal oracle")
    ops.props["orders.labels"] = labels
    ops.props["orders.closure_pairs"] = closure_pairs
    ops.props["orders.order_compat_check.pairs_checked"] = pairs_checked


# --------------------------------------------------------------------- cli_mix

CLI_ROUNDS = {"full": 25, "smoke": 1}
VARIANTS = ("plain", "transpose", "mullineux+transpose")
BAD_INPUTS = (
    ["alcove", "--builtin", "hilb", "--point", "5/12"],                # no --n
    ["alcove", "--builtin", "weyl_a", "--n", "3", "--point", "1/3"],   # wrong dimension
    ["compatible", "--builtin", "hilb", "--n", "3", "--point", "1205/12",
     "--face", "2"],                                                   # radius > 30
)


def _one_period(rng, walls):
    """A regular point of the hilb line in (s0, s0 + 1), s0 the smallest
    shift: compatible-parameter queries from one period hit each lattice
    class at a single translate, so their answers are history-free."""
    s0 = min(walls[0].sigma_tilde)
    den = rng.randrange(50, 400)
    while True:
        x = F(rng.randrange(floor(s0 * den) + 1, floor((s0 + 1) * den)), den)
        if s0 < x < s0 + 1 and is_regular((x,), walls):
            return q(x)


def setup_cli_mix(lib, rng, mode, workdir):
    hilb = {n: lib.builtin_instance("hilb", n=n) for n in (2, 3, 4)}
    weyl3 = lib.builtin_instance("weyl_a", n=3)
    poset = lib.hw_order(hilb[2], (F(5),), 5, (0, 15))
    poset_file = os.path.join(workdir, "poset.json")
    with open(poset_file, "w", encoding="utf-8") as fh:
        json.dump(poset.to_json(hilb[2]), fh, sort_keys=True)

    def weyl_lambda():
        while True:
            lam = tuple(F(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(2))
            if all(pair(w.alpha, lam) not in w.sigma_tilde for w in weyl3.walls):
                return ",".join(qs(lam))

    def hilb2(cmd):
        return [cmd, "--builtin", "hilb", "--n", "2"]

    def one_round():
        n = rng.choice((2, 3, 4))
        pt = qs(regular_point(rng, hilb[n].walls, 1, -2, 3))[0]
        p_mem = rng.choice((5, 7, 11, 13))
        mem = lattice_point(rng, hilb[2].walls, 1, p_mem, 30)
        p_path = rng.choice((5, 7, 11))
        k = rng.randint(-4, 4)
        lo = F(p_path + 1, 2) + p_path * k
        a, b = rng.sample(range(floor(lo) + 1, floor(lo + p_path) + 1), 2)
        p_ord = rng.choice((5, 7))
        z1 = rng.randint(-10, 10)
        p_cc = rng.choice((23, 29, 31))
        wx = regular_point(rng, weyl3.walls, 2, 0, 1)
        return [
            ["alcove", "--builtin", "hilb", "--n", str(n), f"--point={pt}"],
            ["faces", "--builtin", "hilb", "--n", str(n), f"--point={pt}"],
            ["palcove", "--builtin", "weyl_a", "--n", "3", "--point",
             ",".join(qs(wx)), "--p", str(rng.choice((7, 11, 13)))],
            hilb2("membership") + [f"--point={q(mem[0])}", "--p", str(p_mem)],
            ["chambers", "--builtin", "weyl_a", "--n", "3", f"--lambda={weyl_lambda()}"],
            ["quantum", "--builtin", "weyl_a", "--n", "3", f"--lambda={weyl_lambda()}"],
            ["validate-p", "--builtin", "hilb", "--n", str(n), "--p",
             str(rng.choice((11, 23, 47, 59)))],
            hilb2("path") + [f"--from={a}", f"--to={b}", "--p", str(p_path)],
            hilb2("compatible") + ["--point", _one_period(rng, hilb[2].walls),
                                   "--face", str(rng.randint(0, 2)),
                                   "--p-samples", "23,47", "--opposite"],
            hilb2("order") + [f"--lambda-prime={rng.randint(-10, 10)}",
                              "--p", str(p_ord), f"--window={z1}:{z1 + 3 * p_ord}",
                              "--format", rng.choice(("dot", "json"))],
            ["preorder", "--builtin", "hilb", "--n", "3", "--point",
             _one_period(rng, hilb[3].walls), "--face", "1", "--window=-3:3"],
            ["classes", "--builtin", "hilb", "--n", "3", "--point",
             _one_period(rng, hilb[3].walls), "--face", "1", "--window=-3:3"],
            hilb2("check-phw") + [f"--lambda-prime={rng.randint(-10, 10)}",
                                  "--p", str(p_ord), f"--window={z1}:{z1 + 3 * p_ord}"],
            hilb2("check-compat") + ["--point", _one_period(rng, hilb[2].walls),
                                     "--face", "1", "--p", str(p_cc),
                                     f"--window=-{3 * p_cc}:{3 * p_cc}"],
            ["wallcross", "--n", str(rng.randint(6, 10)), "--b", str(rng.randint(2, 5)),
             "--variant", rng.choice(VARIANTS)] + rng.choice(([], ["--csv"])),
            ["export", "--in", poset_file, "--format", rng.choice(("dot", "json"))],
        ]

    calls = []
    for _ in range(CLI_ROUNDS[mode]):
        batch = [(argv, False) for argv in one_round()]
        batch += [(list(argv), True) for argv in BAD_INPUTS]
        rng.shuffle(batch)
        calls.extend(batch)
    return {"calls": calls, "workdir": workdir}


def _dispatch(cli, argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.dispatch(argv)
    return code, buf.getvalue()


def run_cli_mix(lib, state, ops):
    workdir = state["workdir"]
    for i, (argv, bad) in enumerate(state["calls"]):
        ok, res = ops.call(f"dispatch {argv[0]}", _dispatch, lib.cli, argv)
        if not ok:
            ops.out("failed", i, type(res).__name__)
            continue
        code, out = res
        if bad:   # shape only: the error text and codes are due to change
            lines = out.strip().splitlines()
            try:
                shaped = len(lines) == 1 and "error" in json.loads(lines[0])
            except json.JSONDecodeError:
                shaped = False
            ops.check(code != 0 and shaped, f"call {i}: bad input not reported")
            continue
        if "--format" not in argv and "--csv" not in argv:
            try:
                json.loads(out)
            except json.JSONDecodeError:
                ops.check(False, f"call {i}: output is not one JSON document")
        shown = [a.replace(workdir, "<workdir>") for a in argv]
        ops.out("cli", shown, code, out.replace(workdir, "<workdir>"))


WORKLOADS = {
    "alcove_sweep": (setup_alcove_sweep, run_alcove_sweep),
    "compat_translates": (setup_compat_translates, run_compat_translates),
    "label_orders": (setup_label_orders, run_label_orders),
    "cli_mix": (setup_cli_mix, run_cli_mix),
}
