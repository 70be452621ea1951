"""coarse-kit command line driver.

Subcommands: build, verify-prop51, verify-prop52, verify-tower,
check-witness, homology.  A JSON config file may supply any flag (command
line wins).  Exit codes: 0 all-pass, 1 any-fail, 2 inconclusive, 3 usage
error.
"""

import argparse
import json
import sys
import time

from .errors import (
    CoarseKitError,
    InvalidParams,
    NotDivisible,
    ShapeMismatch,
    SizeGuardExceeded,
    TooFewVertices,
)

# Every other module of the package is imported in the branch that runs
# it, so a process compiles only the code its command needs (the bench
# runs each command with no bytecode cache):
#   build circle/annulus/product  complexes, constructions
#   build mk                      mk (with cochains, complexes, exact_linalg)
#   build tower/y-stage           towers (with mk and constructions)
#   build --out                   interchange
#   homology                      rings, homology, interchange
#   verify-prop51/52, -tower      verify and records; mk, cochains, degrees
#                                 and report through them; towers for
#                                 prop52 and tower, metric_nerve for tower
#   check-witness                 witness and records, as verify does

USAGE_ERROR = 3


def _add_mk_flags(sp):
    sp.add_argument("--p", type=int)
    sp.add_argument("--q", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--reduce", action="store_true", default=False)
    sp.add_argument("--node-limit", type=int, default=10_000_000)
    sp.add_argument("--config", type=str, default=None)
    sp.add_argument("--out", type=str, default=None)


def build_parser():
    """The CLI parser and its subcommand parsers by name."""
    ap = argparse.ArgumentParser(prog="coarse-kit")
    sub = ap.add_subparsers(dest="command")

    b = sub.add_parser("build", help="build a complex and write it out")
    b.add_argument("kind", choices=["circle", "annulus", "mk", "tower",
                                    "y-stage", "product"])
    b.add_argument("--n", type=int, default=3)
    b.add_argument("--a", type=int, default=6)
    b.add_argument("--b", type=int, default=3)
    b.add_argument("--stages", type=int, default=1)
    b.add_argument("--levels", type=int, default=1,
                   help="interval length for product builds")
    _add_mk_flags(b)

    for name in ("verify-prop51", "verify-prop52"):
        v = sub.add_parser(name)
        _add_mk_flags(v)
        if name == "verify-prop52":
            v.add_argument("--n-mode", choices=["factorial", "lcm"],
                           default="factorial")

    vt = sub.add_parser("verify-tower")
    vt.add_argument("--stages", type=int, default=2)
    _add_mk_flags(vt)

    cw = sub.add_parser("check-witness")
    cw.add_argument("--report", type=str, required=True)
    cw.add_argument("--out", type=str, default=None)

    h = sub.add_parser("homology")
    h.add_argument("--in", dest="infile", type=str, required=True)
    h.add_argument("--ring", choices=["Z", "Q", "Zp"], default="Z")
    h.add_argument("--prime", type=int, default=2)
    return ap, sub.choices


def _parse(argv):
    """The parsed command line, with the keys of a --config JSON object as
    the subcommand's defaults: a flag given on the command line wins over
    the file, and a string value goes through the flag's type."""
    ap, commands = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "config", None):
        parser = commands[args.command]
        try:
            with open(args.config) as fp:
                conf = json.load(fp)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read config: {exc}")
        defaults = {}
        for key, value in conf.items():
            attr = key.replace("-", "_")
            if attr == "command" or not hasattr(args, attr):
                parser.error(f"unknown config key {key!r}")
            defaults[attr] = value
        parser.set_defaults(**defaults)
        args = ap.parse_args(argv)
    return ap, args


def _mk_params(args):
    from .mk import MkParams

    if args.p is None or args.q is None or args.k is None:
        raise InvalidParams("--p, --q and --k are required")
    return MkParams(args.p, args.q, args.k, reduce=args.reduce)


def _emit(report, out, started):
    text = report.to_json()
    if out:
        with open(out, "w") as fp:
            fp.write(text)
    sys.stdout.write(text)
    print(f"# status {report.status} in {time.time() - started:.2f}s",
          file=sys.stderr)
    return report.exit_code()


def _small_complex(args):
    """The circle, annulus or interval product ``build`` names; the builder
    refuses an out-of-range ``--n``, ``--a``, ``--b`` or ``--levels``
    before it builds anything."""
    if args.kind == "annulus":
        from .constructions import annulus_triangulation

        return annulus_triangulation(args.a, args.b)[0]
    from .complexes import circle

    if args.kind == "circle":
        return circle(args.n)
    from .constructions import interval_product

    return interval_product(circle(args.n), args.levels).complex


def cmd_build(args):
    started = time.time()
    if args.kind in ("circle", "annulus", "product"):
        try:
            X = _small_complex(args)
        except (NotDivisible, ShapeMismatch, TooFewVertices) as exc:
            # a size flag out of range is a usage error, as --stages is
            raise InvalidParams(str(exc)) from None
    elif args.kind == "mk":
        from .mk import build_Mk

        X = build_Mk(_mk_params(args)).complex
    elif args.kind == "tower":
        from .towers import build_tower

        # only the last stage's complex is kept: the earlier stages and
        # their projection and tau maps are freed before the write
        X = build_tower(_mk_params(args), depth=args.stages - 1)[-1].complex
    elif args.kind == "y-stage":
        from .towers import build_Y_stage

        X = build_Y_stage(_mk_params(args), args.stages,
                          size_guard=3_000_000)[-1].complex
    counts = " ".join(str(c) for c in X.counts)
    print(f"cells {counts}")
    print(f"euler {X.euler_characteristic()}")
    if args.out:
        from .interchange import write_complex

        write_complex(args.out, X)
        print(f"wrote {args.out}")
    print(f"# built in {time.time() - started:.2f}s", file=sys.stderr)
    return 0


def cmd_homology(args):
    # a modulus that is not prime is a usage error before any file is read
    from .rings import RING_Q, RING_Z, ring_zp

    ring = {"Z": RING_Z, "Q": RING_Q}.get(args.ring) or ring_zp(args.prime)
    from .homology import homology_summary
    from .interchange import read_complex

    X = read_complex(args.infile)
    for row in homology_summary(X, ring):
        torsion = " ".join(str(t) for t in row["torsion"])
        print(f"H^{row['degree']}: free {row['free_rank']}"
              + (f" torsion {torsion}" if torsion else ""))
    return 0


def main(argv=None):
    try:
        ap, args = _parse(argv)
    except SystemExit as exc:
        # argparse exits 2 on a parse error (2 is INCONCLUSIVE here) and 0
        # after --help
        return USAGE_ERROR if exc.code == 2 else exc.code
    if args.command is None:
        ap.print_help()
        return USAGE_ERROR
    started = time.time()
    try:
        if args.command == "build":
            return cmd_build(args)
        if args.command == "homology":
            return cmd_homology(args)
        if args.command == "check-witness":
            from .witness import check_witness

            report = check_witness(args.report)
            return _emit(report, args.out, started)
        params = _mk_params(args)
        if args.node_limit < 1:
            raise InvalidParams(f"--node-limit {args.node_limit} is below 1")
        from .verify import verify_prop51, verify_prop52, verify_tower

        if args.command == "verify-prop51":
            report = verify_prop51(params, node_limit=args.node_limit)
        elif args.command == "verify-prop52":
            report = verify_prop52(params, node_limit=args.node_limit,
                                   n_mode=args.n_mode)
        elif args.command == "verify-tower":
            report = verify_tower(params, stages=args.stages,
                                  node_limit=args.node_limit)
        else:
            ap.print_help()
            return USAGE_ERROR
        return _emit(report, args.out, started)
    except (InvalidParams, OSError, SizeGuardExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except CoarseKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
