"""Command line front end.

Each command prints one JSON object on stdout: ``command``, ``argv``, the
command's own fields (led by ``instance``, ``n``, ``d``, ``field`` and
``unital``, save in ``bench``), and ``seconds``, its wall time.  A one-line
human summary goes to stderr.  Exit codes are a stable contract:

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
from .instances import Instance, ParseError, grid_of, load_instance, random_generator_set
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


def _seed(args) -> int:
    if args.seed is not None and args.seed < 0:
        raise ParseError(f"--seed must be non-negative, got {args.seed}")
    return args.seed if args.seed is not None else int(np.random.SeedSequence().entropy) % (1 << 63)


def _load(args, path) -> Instance:
    """The instance at ``path``, read under ``--field`` and ``--nonunital``."""
    return load_instance(path, field=args.field, unital=False if args.nonunital else None)


def _instance_fields(inst) -> dict:
    return {
        "instance": inst.path,
        "n": inst.n,
        "d": inst.d,
        "field": inst.field,
        "unital": inst.gs.unital,
    }


def _span_fields(rep) -> dict:
    """How the span matrix report ``rep`` was obtained and cut.  ``cut_values``
    is [sigma_r, sigma_(r+1)], the spectrum on both sides of the rank cut:
    None over Q, and None for a side with no value (rank 0, full rank).
    ``primes`` are the lift's primes over Q, None on floats."""
    sv, r = rep.singular_values, rep.rank
    return {
        "variant": rep.variant,
        "scale": str(rep.scale),
        "rank_tolerance": rep.tol,
        "cut_values": None if sv is None else [sv[r - 1] if r > 0 else None, sv[r] if r < len(sv) else None],
        "conditioning_flag": rep.ill_conditioned,
        "primes": None if rep.primes is None else list(rep.primes),
    }


def cmd_dim(args) -> tuple[int, dict, str]:
    inst = _load(args, args.instance)
    rep = span_matrix(inst.gs)
    fields = {
        **_instance_fields(inst),
        "dimension": rep.rank,
        **_span_fields(rep),
    }
    return EXIT_OK, fields, f"dimension {rep.rank} ({inst.field}, {'unital' if inst.gs.unital else 'non-unital'})"


def cmd_member(args) -> tuple[int, dict, str]:
    inst = _load(args, args.generators)
    cand = load_instance(args.candidate, field=inst.field)
    if cand.d != 1:
        raise ParseError("candidate file must hold exactly one matrix")
    if cand.n != inst.n:
        raise ParseError(f"candidate is {cand.n}x{cand.n}, generators are {inst.n}x{inst.n}")
    z = cand.gs.gens[0]
    rep = span_matrix(inst.gs)
    result = membership(inst.gs, z, want_certificate=args.certificate, report=rep)
    fields = {
        **_instance_fields(inst),
        **_span_fields(rep),
        "candidate": args.candidate,
        "member": result.member,
        "residual": str(result.residual),
        "witness_index": result.witness_index,
        "tolerance": None if z.kind.exact else DEFAULT_RESIDUAL_RTOL,
        "certificate": None
        if result.certificate is None
        else [
            {"word": list(word), "coeff": str(c)}
            for word, c in result.certificate
        ],
    }
    verdict = "member" if result.member else "non-member"
    return EXIT_OK if result.member else EXIT_NONMEMBER, fields, f"{verdict} (residual {result.residual})"


def cmd_basis(args) -> tuple[int, dict, str]:
    inst = _load(args, args.instance)
    ab = basis(inst.gs)
    fields = {
        **_instance_fields(inst),
        "dimension": ab.dim,
        "source": ab.source,
        "basis": [grid_of(m) for m in ab.mats],
    }
    return EXIT_OK, fields, f"basis of dimension {ab.dim}"


def cmd_intersect(args) -> tuple[int, dict, str]:
    a = load_instance(args.instance_a, field=args.field)
    b = load_instance(args.instance_b, field=args.field)
    if a.n != b.n or a.field != b.field or a.gs.unital != b.gs.unital:
        raise ParseError("intersection needs equal n, field and unital flag")
    ab = intersect(a.gs, b.gs)
    fields = {
        **_instance_fields(a),
        "instance_b": b.path,
        "dimension": ab.dim,
        "source": ab.source,
        "basis": [grid_of(m) for m in ab.mats],
    }
    return EXIT_OK, fields, f"intersection dimension {ab.dim}"


def cmd_modp_dim(args) -> tuple[int, dict, str]:
    if args.trials < 1:
        raise ParseError(f"--trials must be at least 1, got {args.trials}")
    if args.prime is not None and not (args.prime < DETERMINISTIC_LIMIT and is_prime(args.prime)):
        raise ParseError(f"--prime {args.prime} is not a prime below {DETERMINISTIC_LIMIT}")
    seed = _seed(args)
    inst = load_instance(args.instance, field=args.field)
    if inst.gs.kind.tag != "rational":
        raise ParseError("modp-dim needs exact integer or rational data")
    if not inst.gs.unital:
        raise ParseError("modp-dim certifies the unital algebra; the instance is non-unital")
    dim, plan = certified_dimension(
        inst.gs.gens, trials=args.trials, seed=seed, n=inst.n, forced_prime=args.prime
    )
    fields = {
        **_instance_fields(inst),
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
    return EXIT_OK, fields, f"dimension {dim} (mod-p certified, {args.trials} trials)"


def cmd_bench(args) -> tuple[int, dict, str]:
    seed = _seed(args)
    if args.random is not None and args.instance is not None:
        raise ParseError("bench takes an instance path or --random N D COUNT, not both")
    if args.random is not None:
        n, d, count = args.random
        if n < 1 or d < 0 or count < 1:
            raise ParseError(f"--random N D COUNT needs N >= 1, D >= 0 and COUNT >= 1, got {n} {d} {count}")
        rng = np.random.default_rng(seed)
        instances = [(f"random-{n}x{n}-d{d}", random_generator_set(n, d, rng)) for _ in range(count)]
    elif args.instance is not None:
        inst = load_instance(args.instance)
        instances = [(inst.path, inst.gs)]
    else:
        raise ParseError("bench needs an instance path or --random N D COUNT")

    # open the CSV file before the timing, so that a bad path fails at once
    try:
        out = open(args.csv, "w", newline="", encoding="utf-8") if args.csv else contextlib.nullcontext()
    except OSError as e:
        raise ParseError(f"cannot write {args.csv}: {e}") from None
    rows = []
    with out as fh:
        for label, gs in instances:
            t0 = time.perf_counter()
            rep = span_matrix(gs)
            t1 = time.perf_counter()
            dim_oracle = wordspan.dimension(gs)
            t2 = time.perf_counter()
            for method, dim, seconds in ((rep.variant, rep.rank, t1 - t0), ("wordspan", dim_oracle, t2 - t1)):
                rows.append({"label": label, "n": gs.n, "d": gs.d, "method": method, "dim": dim, "seconds": round(seconds, 6), "agrees": rep.rank == dim_oracle})
        if fh is not None:
            writer = csv.DictWriter(fh, fieldnames=rows[0].keys())
            writer.writeheader()
            writer.writerows({**row, "agrees": str(row["agrees"]).lower()} for row in rows)

    fields = {
        "seed": seed,
        "csv": args.csv,
        "rows": rows,
    }
    summary = f"bench: {len(rows) // 2} instances, {sum(r['agrees'] for r in rows[::2])} agreeing"
    if all(r["agrees"] for r in rows):
        return EXIT_OK, fields, summary
    return EXIT_DISAGREE, fields, summary + "\nthe span matrix and the word span disagreed"


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
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits on bad usage and on --help
        return e.code
    # looked up per call, so that the parser built once holds no command
    command = globals()["cmd_" + args.command.replace("-", "_")]
    started = time.perf_counter()
    try:
        code, fields, summary = command(args)
    except tuple(cls for cls, _ in _ERROR_EXITS) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return next(code for cls, code in _ERROR_EXITS if isinstance(e, cls))
    report = {
        "command": args.command,
        "argv": argv,
        **fields,
        "seconds": round(time.perf_counter() - started, 6),
    }
    print(json.dumps(report, indent=2))
    print(summary, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
