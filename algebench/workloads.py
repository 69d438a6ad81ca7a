"""The four workloads: which instances each draws and which calls it times.

A workload is built from its seed in two steps.  ``draw`` generates the
instances with their answers (see gen.py); ``bind`` loads the instance files
written from them through ``instances.load_instance`` (the program sees
nothing else) and returns the timed operations.  Each operation has a time
limit per answer, set well above the slowest correct path at its size, so
that a correct answer that is slow still costs less than a wrong one.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import gen

THIRD = Fraction(1, 3)

WORKLOADS = ("f64-dense", "f64-edge", "exact-rational", "modp-certify")

# Per-answer limits in seconds by n: about 4x the slowest correct path at that
# size on a 2-core x86 box (the f64 word-span for float data, the Fraction
# non-member path over Q, two mod-p trials for modp-certify).
LIMITS = {
    "f64-dense": {8: 0.2, 10: 0.2, 12: 0.5, 14: 1.0},
    "f64-edge": {16: 3.0, 20: 4.0, 24: 12.0},
    "exact-rational": {4: 1.0, 5: 4.0, 6: 12.0},
    "modp-certify": {6: 1.0, 8: 2.0, 10: 4.0, 12: 10.0},
}

F64_RTOL = 1e-6  # relative residual allowed in a float certificate


@dataclass
class Op:
    """One timed call, or a batch of membership calls sharing one report.

    ``run`` makes the program calls and returns the answer; ``check`` gives
    one verdict per counted answer, and ``summary`` a small value that must
    come out the same whether or not the layers are traced.
    """

    kind: str
    label: str
    n: int
    count: int  # answers counted: the verdicts of a member batch, else 1
    limit: float  # per answer
    run: Callable[[], Any]
    check: Callable[[Any], list]
    summary: Callable[[Any], Any]
    ranks: dict = field(default_factory=dict)  # id(GeneratorSet) -> expected rank
    rank: int | None = None  # expected rank of a set the call loads itself


# -- drawing -------------------------------------------------------------


def draw(workload: str, seed: int):
    """Cases and the descriptors of the ops that use them, for one seed."""
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    cases, ops = [], []

    def add(*drawn):
        cases.extend(drawn)
        return [c.name for c in drawn]

    if workload == "f64-dense":
        # Many cheap instances: member verdicts at n=8 and n=10 are right on
        # some draws only, and the sum over many draws steadies the total.
        for n in (8, 10, 12, 14):
            names = add(*(gen.draw_case(rng, f"g{n}-{k}", "f64", (n,), n_members=4) for k in range(6)))
            # Block triangular ranks come out short on a few percent of draws
            # at n=8-12 and on half of them at n=14, which would make the
            # failure count depend on the seed; f64-edge shows that defect
            # at n=20 on every seed.
            if n <= 12:
                for a in (2, 3, n // 2):
                    ca, cb, inter = gen.draw_pair(rng, f"t{n}-{a}", "f64", (a, n - a), (n - a, a), 3)
                    names += add(ca, cb)
                    ops.append(("intersect", ca.name, cb.name, inter))
            for name in names:
                ops += [("dim", name), ("basis", name), ("member", name)]
                if n == 8:
                    ops.append(("certificate", name))
                if name.startswith("g"):
                    # generic ranks are right on every seed at these sizes, so
                    # cli_s here times the command and nothing else
                    ops.append(("cli-dim", name))
    elif workload == "f64-edge":
        for name in add(
            gen.draw_case(rng, "g16", "f64", (16,), n_members=2),
            gen.draw_case(rng, "g24", "f64", (24,), n_members=2),
            gen.draw_case(rng, "t20", "f64", (10, 10), n_members=2),
        ):
            ops += [("dim", name), ("basis", name), ("member", name), ("wordspan", name), ("cli-dim", name)]
    elif workload == "exact-rational":
        # Each op gets its own draw, alternately integer and scaled by 1/3:
        # the cost of exact elimination varies by 10-25% between draws of
        # one shape, and independent draws average that out.
        def fresh(n, k, nonmember=True):
            case = gen.draw_case(rng, f"t{n}-{k}", "rational", (n // 2, n - n // 2), (1, THIRD)[k % 2], 1)
            if not nonmember:
                case.nonmembers = []
            return add(case)[0]

        for n in (4, 5):
            for k, kind in enumerate(("dim", "basis", "member", "certificate", "wordspan")):
                ops.append((kind, fresh(n, k)))
        # intersect at n=4 only: at n=5 one call takes 1-1.3 s and varies the
        # most between draws
        ca, cb, inter = gen.draw_pair(rng, "t4-p", "rational", (1, 3), (3, 1), 0, THIRD)
        ops.append(("intersect", *add(ca, cb), inter))
        # At n=6 the member batch has no non-member: that path alone takes
        # 2-3 s there; the n=4-5 batches time it.
        for k, kind in enumerate(("dim", "basis", "member", "certificate", "wordspan")):
            ops.append((kind, fresh(6, k, nonmember=False)))
        # the cli at n=4, where its own work is a visible share; thirty
        # draws, because one call takes only 60-70 ms and a run has only
        # three or four passes to take its median over
        for k in range(6, 36):
            ops.append(("cli-nonmember" if k % 2 else "cli-member", fresh(4, k)))
    elif workload == "modp-certify":
        names = add(*(gen.draw_case(rng, f"g{n}", "rational", (n,)) for n in (6, 8, 10, 12)))
        names += add(*(gen.draw_case(rng, f"t{n}", "rational", (n // 2, n // 2)) for n in (8, 12)))
        ops += [("modp", name) for name in names]
        # three trial seeds per set: one call takes about 0.1 s, and its cost
        # depends on the primes its seed samples
        ops += [("cli-modp", name) for name in ("g8", "t8") for _ in range(3)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return cases, ops


# -- binding -------------------------------------------------------------


def _struct_ok(case, mats) -> bool:
    """Over Q, every matrix lies in the case's structured algebra.  Float
    bases are checked by size only: an orthonormal basis of an
    ill-conditioned span matrix lies off the algebra by up to 1e-4 of its
    norm at n=12 even when the rank is right."""
    return case.field != "rational" or all(case.in_structure(m.data) for m in mats)


def _certificate_ok(gens, z, certificate) -> bool:
    """The word combination multiplies out to the candidate."""
    if not certificate:
        return False
    n = z.rows
    exact = z.kind.exact
    eye = np.eye(n, dtype=int).astype(object) if exact else np.eye(n)
    total = eye * 0
    for word, coeff in certificate:
        w = eye
        for i in word:
            w = w.dot(gens[i].data)
        total = total + w * coeff
    if exact:
        return bool(np.all(total == z.data))
    err = float(np.linalg.norm(total - z.data))
    return err <= F64_RTOL * max(1.0, float(np.linalg.norm(z.data)))


def _cli(argv):
    from algebragen import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_check(code_want, key, want):
    def check(answer):
        code, text = answer
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            return [False]
        return [code == code_want and doc.get(key) == want]

    return check


def bind(workload: str, seed: int, cases, descs, files) -> list[Op]:
    """Load the instance files and make the timed ops.

    ``files[name]`` holds the paths written for case ``name``.  Library
    functions are looked up on their modules at call time, so a traced pass
    reaches the wrapped ones.
    """
    # cli is imported here, not on the first timed call
    from algebragen import algebra, cli, instances, modp, resolvent, wordspan  # noqa: F401

    by_name = {c.name: c for c in cases}
    sets = {c.name: instances.load_instance(files[c.name]["gens"]).gs for c in cases}

    def cands(name, which):
        return [instances.load_instance(p).gs.gens[0] for p in files[name][which]]

    limits = LIMITS[workload]
    ops = []
    for k, desc in enumerate(descs):
        kind, name = desc[0], desc[1]
        case, gs = by_name[name], sets[name]
        n, dim = case.n, case.dim
        label = f"{kind}:{name}"
        common = dict(kind=kind, label=label, n=n, limit=limits[n], ranks={id(gs): dim}, rank=dim)
        if kind == "dim":
            op = Op(count=1, run=lambda gs=gs: algebra.dimension(gs),
                    check=lambda a, dim=dim: [a == dim], summary=lambda a: a, **common)
        elif kind == "basis":
            op = Op(count=1, run=lambda gs=gs: algebra.basis(gs),
                    check=lambda a, c=case: [a.dim == c.dim and _struct_ok(c, a.mats)],
                    summary=lambda a: a.dim, **common)
        elif kind == "member":
            zs = cands(name, "members") + cands(name, "nonmembers")
            want = [True] * len(case.members) + [False] * len(case.nonmembers)

            def batch(gs=gs, zs=zs):
                report = resolvent.span_matrix(gs)
                return [algebra.membership(gs, z, report=report).member for z in zs]

            op = Op(count=len(zs), run=batch, check=lambda a, want=want: [x == y for x, y in zip(a, want)],
                    summary=tuple, **common)
        elif kind == "certificate":
            z = cands(name, "members")[0]
            op = Op(count=1, run=lambda gs=gs, z=z: algebra.membership(gs, z, want_certificate=True),
                    check=lambda a, gs=gs, z=z: [a.member and _certificate_ok(gs.gens, z, a.certificate)],
                    summary=lambda a: (a.member, a.certificate is not None), **common)
        elif kind == "intersect":
            other, inter = by_name[desc[2]], desc[3]
            gs_b = sets[other.name]
            common.update(label=f"{kind}:{name}+{other.name}", ranks={id(gs): dim, id(gs_b): other.dim}, rank=None)
            op = Op(count=1, run=lambda a=gs, b=gs_b: algebra.intersect(a, b),
                    check=lambda a, c=case, o=other, inter=inter: [
                        a.dim == inter and _struct_ok(c, a.mats) and _struct_ok(o, a.mats)],
                    summary=lambda a: a.dim, **common)
        elif kind == "wordspan":
            op = Op(count=1, run=lambda gs=gs: wordspan.dimension(gs),
                    check=lambda a, dim=dim: [a == dim], summary=lambda a: a, **common)
        elif kind == "modp":
            op_seed = seed * 1000 + k
            op = Op(count=1, run=lambda gs=gs, s=op_seed: modp.certified_dimension(list(gs.gens), trials=2, seed=s),
                    check=lambda a, dim=dim: [a[0] == dim], summary=lambda a: a[0], **common)
        elif kind == "cli-dim":
            argv = ["dim", files[name]["gens"]]
            op = Op(count=1, run=lambda argv=argv: _cli(argv), check=_cli_check(0, "dimension", dim),
                    summary=lambda a: a[0], **common)
        elif kind in ("cli-member", "cli-nonmember"):
            member = kind == "cli-member"
            argv = ["member", files[name]["gens"], files[name]["members" if member else "nonmembers"][0]]
            op = Op(count=1, run=lambda argv=argv: _cli(argv),
                    check=_cli_check(0 if member else 1, "member", member), summary=lambda a: a[0], **common)
        elif kind == "cli-modp":
            argv = ["modp-dim", files[name]["gens"], "--trials", "2", "--seed", str(seed * 1000 + k)]
            op = Op(count=1, run=lambda argv=argv: _cli(argv), check=_cli_check(0, "dimension", dim),
                    summary=lambda a: a[0], **common)
        else:
            raise ValueError(f"unknown op kind {kind!r}")
        ops.append(op)
    return ops
