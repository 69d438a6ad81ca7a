"""Command line front end.

Reports are machine-readable JSON on stdout; a one-line human summary goes
to stderr.  Exit codes are a stable contract:

    0  success (member, for the member command)
    1  non-member
    2  parse or validation failure
    3  (retired)
    4  numeric failure, running out of memory included
    5  instance too large for the deterministic primality range
    6  bench: the span matrix and the word span disagreed on a dimension
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import sys
import time

import numpy as np

from . import wordspan
from .algebra import basis, intersect, membership
from .instances import ParseError, grid_of, load_instance, random_generator_set
from .matrix import DEFAULT_RESIDUAL_RTOL
from .modp import DEFAULT_TRIALS, PrimeRangeError, certified_dimension
from .primes import DETERMINISTIC_LIMIT, is_prime
from .resolvent import span_matrix

EXIT_OK = 0
EXIT_NONMEMBER = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 4
EXIT_RANGE = 5
EXIT_DISAGREE = 6

# The errors ``main`` catches; each exits with the code of the first class it
# matches (ParseError and PrimeRangeError are ValueErrors, SingularMatrixError
# an ArithmeticError).  Any class the table does not list, AssertionError
# among them, goes uncaught and exits 1, the non-member code.
_ERROR_EXITS = (
    (ParseError, EXIT_PARSE),
    (PrimeRangeError, EXIT_RANGE),
    (ArithmeticError, EXIT_NUMERIC),
    (ValueError, EXIT_NUMERIC),
    (MemoryError, EXIT_NUMERIC),
)


def _emit(report: dict, summary: str) -> None:
    print(json.dumps(report, indent=2))
    print(summary, file=sys.stderr)


def _seed(args) -> int:
    if args.seed is not None and args.seed < 0:
        raise ParseError(f"--seed must be non-negative, got {args.seed}")
    return args.seed if args.seed is not None else int(np.random.SeedSequence().entropy) % (1 << 63)


def _report_base(args, inst, started) -> dict:
    return {
        "command": args.command,
        "argv": list(getattr(args, "_argv", [])),
        "instance": inst.path,
        "n": inst.n,
        "d": inst.d,
        "field": inst.field,
        "unital": inst.gs.unital,
        "seconds": round(time.perf_counter() - started, 6),
    }


def _cut_values(rep) -> list | None:
    """[sigma_r, sigma_(r+1)]: the spectrum on both sides of the rank cut,
    None over Q, and None for a side with no value (rank 0, full rank)."""
    sv, r = rep.singular_values, rep.rank
    if sv is None:
        return None
    return [sv[r - 1] if r > 0 else None, sv[r] if r < len(sv) else None]


def _span_fields(rep) -> dict:
    """How the span matrix report ``rep`` was obtained and cut."""
    return {
        "variant": rep.variant,
        "scale": str(rep.scale),
        "rank_tolerance": rep.tol,
        "cut_values": _cut_values(rep),
        "conditioning_flag": rep.ill_conditioned,
    }


def cmd_dim(args) -> int:
    started = time.perf_counter()
    inst = load_instance(args.instance, field=args.field, unital=False if args.nonunital else None)
    rep = span_matrix(inst.gs)
    report = _report_base(args, inst, started)
    report.update(
        {
            "dimension": rep.rank,
            **_span_fields(rep),
            "primes": None if rep.primes is None else list(rep.primes),
        }
    )
    _emit(report, f"dimension {rep.rank} ({inst.field}, {'unital' if inst.gs.unital else 'non-unital'})")
    return EXIT_OK


def cmd_member(args) -> int:
    started = time.perf_counter()
    inst = load_instance(args.generators, field=args.field, unital=False if args.nonunital else None)
    cand = load_instance(args.candidate, field=inst.field)
    if cand.d != 1:
        raise ParseError("candidate file must hold exactly one matrix")
    if cand.n != inst.n:
        raise ParseError(f"candidate is {cand.n}x{cand.n}, generators are {inst.n}x{inst.n}")
    z = cand.gs.gens[0]
    rep = span_matrix(inst.gs)
    result = membership(inst.gs, z, want_certificate=args.certificate, report=rep)
    report = _report_base(args, inst, started)
    report.update(
        {
            **_span_fields(rep),
            "candidate": args.candidate,
            "member": result.member,
            "residual": str(result.residual),
            "tolerance": None if z.kind.exact else DEFAULT_RESIDUAL_RTOL,
            "certificate": None
            if result.certificate is None
            else [
                {"word": list(word), "coeff": str(c)}
                for word, c in result.certificate
            ],
        }
    )
    verdict = "member" if result.member else "non-member"
    _emit(report, f"{verdict} (residual {result.residual})")
    return EXIT_OK if result.member else EXIT_NONMEMBER


def cmd_basis(args) -> int:
    started = time.perf_counter()
    inst = load_instance(args.instance, field=args.field, unital=False if args.nonunital else None)
    ab = basis(inst.gs)
    report = _report_base(args, inst, started)
    report.update(
        {
            "dimension": ab.dim,
            "source": ab.source,
            "basis": [grid_of(m) for m in ab.mats],
        }
    )
    _emit(report, f"basis of dimension {ab.dim}")
    return EXIT_OK


def cmd_intersect(args) -> int:
    started = time.perf_counter()
    a = load_instance(args.instance_a, field=args.field)
    b = load_instance(args.instance_b, field=args.field)
    if a.n != b.n or a.field != b.field or a.gs.unital != b.gs.unital:
        raise ParseError("intersection needs equal n, field and unital flag")
    ab = intersect(a.gs, b.gs)
    report = _report_base(args, a, started)
    report.update(
        {
            "instance_b": b.path,
            "dimension": ab.dim,
            "basis": [grid_of(m) for m in ab.mats],
        }
    )
    _emit(report, f"intersection dimension {ab.dim}")
    return EXIT_OK


def cmd_modp_dim(args) -> int:
    if args.trials < 1:
        raise ParseError(f"--trials must be at least 1, got {args.trials}")
    if args.prime is not None and not (args.prime < DETERMINISTIC_LIMIT and is_prime(args.prime)):
        raise ParseError(f"--prime {args.prime} is not a prime below {DETERMINISTIC_LIMIT}")
    seed = _seed(args)
    started = time.perf_counter()
    inst = load_instance(args.instance, field=args.field)
    if inst.gs.kind.tag != "rational":
        raise ParseError("modp-dim needs exact integer or rational data")
    if not inst.gs.unital:
        raise ParseError("modp-dim certifies the unital algebra; the instance is non-unital")
    dim, plan = certified_dimension(
        inst.gs.gens, trials=args.trials, seed=seed, n=inst.n, forced_prime=args.prime
    )
    report = _report_base(args, inst, started)
    report.update(
        {
            "dimension": dim,
            "seed": seed,
            "trials": args.trials,
            "prime_plan": {
                "B": plan.B,
                "bad_prime_bound": plan.bad_prime_bound,
                "ceiling": plan.ceiling,
                "failure_probability_bound": plan.failure_probability_bound,
                "primes": [
                    {"p": o.p, "outcome": "singular-skip" if o.singular else "rank", "rank": o.rank}
                    for o in plan.outcomes
                ],
            },
        }
    )
    _emit(report, f"dimension {dim} (mod-p certified, {args.trials} trials)")
    return EXIT_OK


def cmd_bench(args) -> int:
    started = time.perf_counter()
    seed = _seed(args)
    instances = []
    if args.random is not None and args.instance is not None:
        raise ParseError("bench takes an instance path or --random N D COUNT, not both")
    if args.random is not None:
        n, d, count = args.random
        if n < 1 or d < 0 or count < 1:
            raise ParseError(f"--random N D COUNT needs N >= 1, D >= 0 and COUNT >= 1, got {n} {d} {count}")
        rng = np.random.default_rng(seed)
        for _ in range(count):
            instances.append((f"random-{n}x{n}-d{d}", random_generator_set(n, d, rng)))
    elif args.instance is not None:
        inst = load_instance(args.instance)
        instances.append((inst.path, inst.gs))
    else:
        raise ParseError("bench needs an instance path or --random N D COUNT")

    # open the CSV file before the timing, so that a bad path fails at once
    try:
        out = open(args.csv, "w", newline="", encoding="utf-8") if args.csv else contextlib.nullcontext()
    except OSError as e:
        raise ParseError(f"cannot write {args.csv}: {e}") from None
    rows = []
    disagreement = False
    with out as fh:
        for label, gs in instances:
            t0 = time.perf_counter()
            rep = span_matrix(gs)
            dim_fast = rep.rank
            t_fast = time.perf_counter() - t0
            t0 = time.perf_counter()
            dim_oracle = wordspan.dimension(gs)
            t_oracle = time.perf_counter() - t0
            agrees = dim_fast == dim_oracle
            disagreement = disagreement or not agrees
            rows.append({"label": label, "n": gs.n, "d": gs.d, "method": rep.variant, "dim": dim_fast, "seconds": round(t_fast, 6), "agrees": agrees})
            rows.append({"label": label, "n": gs.n, "d": gs.d, "method": "wordspan", "dim": dim_oracle, "seconds": round(t_oracle, 6), "agrees": agrees})
        if fh is not None:
            writer = csv.writer(fh)
            writer.writerow(["label", "n", "d", "method", "dim", "seconds", "agrees"])
            for row in rows:
                writer.writerow([row["label"], row["n"], row["d"], row["method"], row["dim"], row["seconds"], str(row["agrees"]).lower()])

    report = {
        "command": "bench",
        "argv": list(getattr(args, "_argv", [])),
        "seed": seed,
        "csv": args.csv,
        "rows": rows,
        "seconds": round(time.perf_counter() - started, 6),
    }
    agree_count = sum(1 for r in rows if r["agrees"]) // 2
    _emit(report, f"bench: {len(rows) // 2} instances, {agree_count} agreeing")
    if disagreement:
        print("the span matrix and the word span disagreed", file=sys.stderr)
        return EXIT_DISAGREE
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads every argv with, built once per process."""
    parser = argparse.ArgumentParser(
        prog="algebragen",
        description="Dimension, membership and bases of matrix algebras given generators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, unital=False):
        p.add_argument("--field", default=None, help="force field: f64|c64|rational")
        if unital:
            p.add_argument("--nonunital", action="store_true", help="use the non-unital algebra")

    p = sub.add_parser("dim", help="dimension of the generated algebra")
    p.add_argument("instance")
    common(p, unital=True)

    p = sub.add_parser("member", help="is a candidate matrix in the algebra?")
    p.add_argument("generators")
    p.add_argument("candidate")
    common(p, unital=True)
    p.add_argument("--certificate", action="store_true", help="also produce a word combination")

    p = sub.add_parser("basis", help="basis matrices of the generated algebra")
    p.add_argument("instance")
    common(p, unital=True)

    p = sub.add_parser("intersect", help="basis of the intersection of two algebras")
    p.add_argument("instance_a")
    p.add_argument("instance_b")
    common(p)

    p = sub.add_parser("modp-dim", help="certified dimension via random primes (integer data)")
    p.add_argument("instance")
    common(p)
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--prime", type=int, default=None,
                   help="also try this prime: its rank joins the maximum, not the failure bound")

    p = sub.add_parser("bench", help="compare the span-matrix dimension against the word-span baseline")
    p.add_argument("instance", nargs="?", default=None)
    p.add_argument("--random", nargs=3, type=int, metavar=("N", "D", "COUNT"), default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--csv", default=None, help="write rows to this CSV file")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse exits on bad usage and on --help
        return e.code
    args._argv = list(sys.argv[1:] if argv is None else argv)
    # looked up per call, so that the parser built once holds no command
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except tuple(cls for cls, _ in _ERROR_EXITS) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return next(code for cls, code in _ERROR_EXITS if isinstance(e, cls))


if __name__ == "__main__":
    sys.exit(main())
