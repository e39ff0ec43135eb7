"""Command-line surface: bench, verify, expand, gradcheck, approx-attn.

Exit codes: 0 on success, 1 when any verification fails, 2 on usage errors.
Usage errors are found before any work is timed or printed: bad flag values,
an unreadable or invalid ``expand --config`` document, a ``normalize_y``
block (not a polynomial), a block beyond the oracle's caps, and ``bench``
schemes, N values, ``--fits-out`` requests or output paths that cannot all
be met.
``PADRE_SEED`` in the environment overrides ``--seed`` everywhere; ``expand
--config`` takes its seed from the config.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

# Pin BLAS pools before numpy comes in, so bench timing stays single-threaded.
# ``import padre`` loads no numpy, so this runs first under the console script
# and ``python -m padre``.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from . import verify as verify_mod
from .bench import (ALL_SCHEMES, DEFAULT_CHANNELS, DEFAULT_N_LIST, MIN_FIT_POINTS, emit_csv,
                    fit_scaling, run_bench)
from .block import block_from_config, config_from_json, forward, random_block
from .oracle import extract_coeffs
from .tensor import LayoutError, NumericError, SizeCapError


def _int_at_least(low: int):
    """argparse type: a decimal integer >= ``low``; anything else is a usage error."""
    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return int(text)
    return parse


def _finite_positive(text: str) -> float:
    """argparse type: a finite float > 0; anything else is a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


_seed = _int_at_least(0)


def _usage_error(command: str, message) -> int:
    print(f"padre {command}: error: {message}", file=sys.stderr)
    return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padre",
        description="Polynomial token-mixing blocks: benchmarks and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bench", help="run the scaling benchmark and emit CSV")
    b.add_argument("--schemes", nargs="+", choices=ALL_SCHEMES,
                   default=["padre-2", "padre-3", "padre-4", "softmax-attn"])
    b.add_argument("--n-list", nargs="+", type=_int_at_least(1), default=list(DEFAULT_N_LIST))
    b.add_argument("--channels", type=_int_at_least(1), default=DEFAULT_CHANNELS)
    b.add_argument("--reps", type=_int_at_least(5), default=20)
    b.add_argument("--warmup", type=_int_at_least(0), default=3)
    b.add_argument("--out", default="bench.csv")
    b.add_argument("--fits-out", default=None,
                   help="also write log-log exponent fits to this path")

    v = sub.add_parser("verify", help="run the invariant checks; nonzero exit on failure")
    v.add_argument("what", nargs="?", choices=["equivalence"], default=None)
    v.add_argument("--scheme", choices=verify_mod.SCHEMES, default=None)

    e = sub.add_parser("expand", help="dump the exact polynomial of a small block")
    e.add_argument("--n", type=_int_at_least(1), default=2, help="token count")
    e.add_argument("--channels", type=_int_at_least(1), default=2)
    e.add_argument("-d", "--d", "--degree", dest="degree", type=_int_at_least(1), default=2,
                   help="block degree (also the extraction bound)")
    e.add_argument("--config", default=None,
                   help="build the block from a JSON config instead of flags")

    g = sub.add_parser("gradcheck", help="finite-difference gradient reports")
    g.add_argument("--probes", type=_int_at_least(1), default=200)
    g.add_argument("--step", type=_finite_positive, default=1e-4)

    a = sub.add_parser("approx-attn", help="truncated-series attention error sweep")
    a.add_argument("--max-degree", type=_int_at_least(0), default=12)
    a.add_argument("--l-bound", type=_finite_positive, default=1.0)
    for command in (b, v, e, g, a):
        command.add_argument("--seed", type=_seed, default=0)
    return parser


def _cmd_bench(args) -> int:
    fits_possible = len(set(args.n_list)) >= MIN_FIT_POINTS
    if args.fits_out and not fits_possible:
        return _usage_error("bench", f"--fits-out needs >= {MIN_FIT_POINTS} distinct "
                                     f"--n-list values, got {len(set(args.n_list))}")
    for flag, path in (("--out", args.out), ("--fits-out", args.fits_out)):
        made = path and not os.path.lexists(path)
        try:            # appending writes nothing; a file that this makes is removed
            if path:
                open(path, "a", encoding="utf-8").close()
        except OSError as exc:
            return _usage_error("bench", f"{flag} {path!r} cannot be written: {exc.strerror}")
        if made:
            os.remove(path)
    try:
        records = run_bench(args.schemes, args.n_list, d_ch=args.channels, reps=args.reps,
                            warmup=args.warmup, seed=args.seed)
    except LayoutError as exc:      # a scheme that cannot take one of the N values
        return _usage_error("bench", exc)
    emit_csv(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    if fits_possible:
        fits = fit_scaling(records)
        for f in fits:
            print(f"{f.scheme}: flop exponent {f.flop_exponent:.3f}, "
                  f"time exponent {f.time_exponent:.3f} over {f.points} points")
        if args.fits_out:
            emit_csv(fits, args.fits_out)
            print(f"wrote fits to {args.fits_out}")
    return 0


def _cmd_verify(args) -> int:
    names = list(verify_mod.CHECKS)
    if args.what == "equivalence" or args.scheme:
        names = [f"scheme={s}" for s in ([args.scheme] if args.scheme
                                          else verify_mod.SCHEMES)]
    failed = False
    for name in names:
        r = verify_mod.CHECKS[name](args.seed)
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name} max_dev={r.worst:.3e} "
              f"tol={r.tol:.0e} ({r.detail})")
        failed |= not r.passed
    return 1 if failed else 0


def _cmd_expand(args) -> int:
    try:
        if args.config:
            with open(args.config, encoding="utf-8") as f:
                cfg = config_from_json(f.read())
            block = block_from_config(cfg)
            if block.normalize_y:            # dividing by a row's RMS is not polynomial
                raise ValueError("a normalize_y block is not a polynomial, so it has no expansion")
            args.n, args.channels = block.n_tokens, block.n_channels
            args.degree, args.seed = block.degree, cfg.get("seed", 0)   # as the block was built
        else:
            block = random_block(args.n, args.channels, args.degree, args.seed)
    except (OSError, ValueError) as exc:     # unreadable or invalid config document
        return _usage_error("expand", exc)
    try:
        coeffs = extract_coeffs(lambda x: forward(block, x)[0], args.n, args.channels,
                                args.degree)
    except SizeCapError as exc:              # a block beyond the oracle's caps
        return _usage_error("expand", exc)
    print(f"# block N={args.n} D={args.channels} degree={args.degree} "
          f"seed={args.seed}; residual {coeffs.diagnostics.residual:.2e}")
    for line in coeffs.dump_lines():
        print(line)
    return 0


def _cmd_gradcheck(args) -> int:
    failed = False
    for name, check, block, x, probe_seed in verify_mod.gradient_cases(args.seed):
        try:
            rep = check(block, x, probes=args.probes, step=args.step, seed=probe_seed)
            result, ok = f"max_rel_err={rep.max_rel_err:.3e}", rep.passed
        except NumericError as exc:          # a perturbed forward left the float range
            result, ok = f"non_finite_stage={exc.stage}", False
        print(f"gradcheck scheme={name} seed={args.seed} probes={args.probes} "
              f"{result} {'pass' if ok else 'fail'}")
        failed |= not ok
    return 1 if failed else 0


def _cmd_approx_attn(args) -> int:
    from . import adapters
    p, x = verify_mod.attention_instance(args.seed, 0.98 * args.l_bound)
    exact = adapters.softmax_attention(p, x)
    rows, stop = [], None
    for deg in range(0, args.max_degree + 1):
        approx, bound = adapters.attention_rational_approx(p, x, deg)
        if bound == math.inf:                # beyond the float range: no approximation
            stop = f"the degree {deg} remainder bound is beyond the float range"
            break
        rows.append(f"{deg},{float(np.max(np.abs(approx - exact)))!r},{bound!r}")
        if bound == 0.0 and deg < args.max_degree:   # later terms underflow: same rows
            stop = f"the degree {deg} remainder bound is 0, and higher degrees add nothing"
            break
    if not rows:
        return _usage_error("approx-attn", f"--l-bound {args.l_bound!r}: {stop}")
    print("degree,max_error,remainder_bound", *rows, sep="\n")
    if stop:
        print(f"padre approx-attn: stopped, {stop}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if "PADRE_SEED" in os.environ and hasattr(args, "seed"):
        try:
            args.seed = _seed(os.environ["PADRE_SEED"])
        except argparse.ArgumentTypeError as exc:
            parser.error(f"PADRE_SEED: {exc}")
    handlers = {
        "bench": _cmd_bench,
        "verify": _cmd_verify,
        "expand": _cmd_expand,
        "gradcheck": _cmd_gradcheck,
        "approx-attn": _cmd_approx_attn,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
