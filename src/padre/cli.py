"""Command-line surface: bench, verify, expand, gradcheck, approx-attn.

Exit codes: 0 on success, 1 when any verification fails, 2 on usage errors.
``PADRE_SEED`` in the environment overrides ``--seed`` everywhere.
"""

from __future__ import annotations

import argparse
import os
import sys

# Pin BLAS pools before numpy comes in, so bench timing stays single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from . import verify as verify_mod
from .bench import ALL_SCHEMES, DEFAULT_CHANNELS, DEFAULT_N_LIST, emit_csv, fit_scaling, run_bench
from .block import (Seq1d, block_from_config, build_conv_instance, config_from_json, forward,
                    random_block)
from .grad import gradcheck
from .oracle import extract_coeffs
from .rational import random_rational_block, rational_gradcheck


def _int_at_least(low: int):
    """argparse type: a decimal integer >= ``low``; anything else is a usage error."""
    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return int(text)
    return parse


_seed = _int_at_least(0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padre",
        description="Polynomial token-mixing blocks: benchmarks and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bench", help="run the scaling benchmark and emit CSV")
    b.add_argument("--schemes", nargs="+", default=["padre-2", "padre-3", "padre-4",
                                                    "softmax-attn"],
                   help=f"subset of: {', '.join(ALL_SCHEMES)}")
    b.add_argument("--n-list", nargs="+", type=int, default=list(DEFAULT_N_LIST))
    b.add_argument("--channels", type=int, default=DEFAULT_CHANNELS)
    b.add_argument("--reps", type=int, default=20)
    b.add_argument("--warmup", type=int, default=3)
    b.add_argument("--out", default="bench.csv")
    b.add_argument("--fits-out", default=None,
                   help="also write log-log exponent fits to this path")

    v = sub.add_parser("verify", help="run the invariant checks; nonzero exit on failure")
    v.add_argument("what", nargs="?", choices=["equivalence"], default=None)
    v.add_argument("--scheme", choices=verify_mod.SCHEMES, default=None)

    e = sub.add_parser("expand", help="dump the exact polynomial of a small block")
    e.add_argument("--n", type=int, default=2, help="token count")
    e.add_argument("--channels", type=int, default=2)
    e.add_argument("-d", "--d", "--degree", dest="degree", type=int, default=2,
                   help="block degree (also the extraction bound)")
    e.add_argument("--config", default=None,
                   help="build the block from a JSON config instead of flags")

    g = sub.add_parser("gradcheck", help="finite-difference gradient reports")
    g.add_argument("--probes", type=_int_at_least(1), default=200)
    g.add_argument("--step", type=float, default=1e-4)

    a = sub.add_parser("approx-attn", help="truncated-series attention error sweep")
    a.add_argument("--max-degree", type=int, default=12)
    a.add_argument("--l-bound", type=float, default=1.0)
    for command in (b, v, e, g, a):
        command.add_argument("--seed", type=_seed, default=0)
    return parser


def _cmd_bench(args) -> int:
    records = run_bench(args.schemes, args.n_list, d_ch=args.channels, reps=args.reps,
                        warmup=args.warmup, seed=args.seed)
    emit_csv(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    by_scheme = {r.scheme for r in records}
    if all(sum(r.scheme == s for r in records) >= 4 for s in by_scheme):
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
    if args.config:
        with open(args.config, encoding="utf-8") as f:
            cfg = config_from_json(f.read())
        block = block_from_config(cfg)
        args.n, args.channels = block.n_tokens, block.n_channels
        args.degree = block.degree
    else:
        block = random_block(args.n, args.channels, args.degree, args.seed)
    coeffs = extract_coeffs(lambda x: forward(block, x)[0], args.n, args.channels,
                            args.degree)
    print(f"# block N={args.n} D={args.channels} degree={args.degree} "
          f"seed={args.seed}; residual {coeffs.diagnostics.residual:.2e}")
    for line in coeffs.dump_lines():
        print(line)
    return 0


def _cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(args.seed)
    failed = False
    cases = [
        ("conv-seq-d3", build_conv_instance(16, 4, 3, Seq1d(), seed=args.seed), gradcheck),
        ("random-d4-norm", random_block(9, 4, 4, seed=args.seed, normalize_y=True,
                                        with_bias=True), gradcheck),
        ("rational-d2e2", random_rational_block(6, 3, 2, 2, seed=args.seed),
         rational_gradcheck),
    ]
    for name, block, check in cases:
        x = rng.uniform(-1, 1, size=(block.n_tokens, block.n_channels))
        rep = check(block, x, probes=args.probes, step=args.step, seed=args.seed)
        status = "pass" if rep.passed else "fail"
        print(f"gradcheck scheme={name} seed={args.seed} probes={rep.probes} "
              f"max_rel_err={rep.max_rel_err:.3e} {status}")
        failed |= not rep.passed
    return 1 if failed else 0


def _cmd_approx_attn(args) -> int:
    from . import adapters
    p, x = verify_mod.attention_instance(args.seed, 0.98 * args.l_bound)
    exact = adapters.softmax_attention(p, x)
    print("degree,max_error,remainder_bound")
    for deg in range(0, args.max_degree + 1):
        approx, bound = adapters.attention_rational_approx(p, x, deg)
        err = float(np.max(np.abs(approx - exact)))
        print(f"{deg},{err!r},{bound!r}")
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
