"""Command-line front end: instance generation, refutation, certificate
auditing, determinant-identity spot checks, and walk experiments.

Exit codes: 0 success, 2 bad input or arguments (a certificate audited
against an instance of another kind or size included), 3 audit failure, 4
infeasible at desk scale (a linalg.Infeasible refusal, and nothing else).
Re-running a command with the same arguments rewrites byte-identical files
except for the single timestamp field in a certificate's metadata.
"""

import argparse
import contextlib
import json
import sys
from datetime import datetime, timezone

import numpy as np

from . import certify
from . import instances
from . import linalg
from . import nonbacktracking
from . import refute
from . import walks


def _dump_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


@contextlib.contextmanager
def _well_formed(what, path):
    """Report JSON that parses but is not the expected object (a missing
    field, a list in place of an object) as bad input."""
    try:
        yield
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed {what} {path}: "
                         f"{type(exc).__name__}: {exc}") from exc


def _load_instance(path):
    d = _load_json(path)
    with _well_formed("instance", path):
        kind = d.get("kind")
        if kind == "xor":
            return instances.XorInstance.from_json_dict(d)
        if kind == "csp":
            return instances.CspInstance.from_json_dict(d)
    raise ValueError(f"unknown instance kind {kind!r} in {path}")


def cmd_gen(args):
    if args.kind == "xor":
        inst = instances.sample_kxor(args.n, args.k, args.p, args.seed)
    else:
        if args.truth_table is not None:
            table = [int(v) for v in args.truth_table.split(",")]
        else:
            table = instances.predicate_table(args.predicate, args.k)
        inst = instances.sample_csp(table, args.n, args.k, args.p, args.seed)
    _dump_json(inst.to_json_dict(), args.out)
    print(f"wrote {args.out}: kind={args.kind} n={inst.n} k={inst.k} "
          f"m={inst.m} p={args.p} seed={args.seed}")
    return 0


def cmd_refute(args):
    inst = _load_instance(args.infile)
    if isinstance(inst, instances.XorInstance):
        cert = refute.refute_xor(inst, z=args.z)
    else:
        cert = refute.refute_csp(inst, z=args.z)
    d = cert.to_json_dict()
    d.setdefault("meta", {})["timestamp"] = (
        datetime.now(timezone.utc).isoformat())
    _dump_json(d, args.out)
    print(f"wrote {args.out}: bound={cert.final_bound:.6f} "
          f"informative={cert.informative} sound={cert.sound}")
    return 0


def cmd_audit(args):
    inst = _load_instance(args.infile)
    with _well_formed("certificate", args.cert):
        cert = certify.Certificate.from_json_dict(_load_json(args.cert))
    report = certify.audit(inst, cert)
    print(json.dumps(report, indent=2, sort_keys=True))
    if not report["auditable"]:
        return 4
    return 0 if report["passed"] else 3


def cmd_check_identity(args):
    if args.n < 2:
        raise ValueError(f"--n must be at least 2, got {args.n}")
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.trials):
        while True:
            dense = np.zeros((args.n, args.n))
            for u in range(args.n):
                for v in range(u + 1, args.n):
                    if rng.random() < 0.5:
                        w = rng.uniform(-2.0, 2.0)
                        if abs(w) < 1e-3:
                            w = 1e-3 if w >= 0 else -1e-3
                        dense[u, v] = dense[v, u] = w
            if np.count_nonzero(dense):
                break
        u_point = rng.uniform(-0.9, 0.9)
        res = nonbacktracking.ihara_bass_residual(dense, u_point)
        worst = max(worst, res)
    print(f"max residual over {args.trials} trials at n={args.n}: "
          f"{worst:.3e}")
    return 0


def cmd_walks(args):
    if args.experiment == "rho":
        if args.seeds < 1:
            raise ValueError(f"--seeds must be at least 1, got {args.seeds}")
        report = walks.rho_B_experiment(args.n, args.d,
                                        list(range(args.seeds)), z=args.z)
        if args.out:
            with open(args.out, "w") as fh:
                for record in report["records"]:
                    fh.write(json.dumps(record, sort_keys=True) + "\n")
        print(f"median rho/sqrt(d) over {args.seeds} seeds at "
              f"n={args.n}, d={args.d}: {report['median_ratio']:.4f}")
        return 0
    rows = []
    for v in range(2, args.v_max + 1):
        for e in range(v - 1, args.q * args.z + 1):
            count = walks.count_canonical(args.q, args.z, v, e, args.t)
            if count:
                rows.append({"v": v, "e": e, "count": count})
    print(json.dumps({"q": args.q, "z": args.z, "t": args.t,
                      "counts": rows}, indent=2, sort_keys=True))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nbrefute",
        description="spectral refutation certificates for random k-XOR "
                    "and CSP instances")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="sample a random instance to JSON")
    p.add_argument("--kind", choices=("xor", "csp"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--predicate", choices=("3sat", "parity"),
                   default="3sat", help="CSP predicate (ignored for xor)")
    p.add_argument("--truth-table",
                   help="comma-separated 0/1 values overriding --predicate")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("refute", help="produce a refutation certificate")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--z", type=int, default=16,
                   help="recorded in the certificate's meta only; no "
                        "refutation step reads it")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_refute)

    p = sub.add_parser("audit",
                       help="check a certificate against brute force")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--cert", required=True)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("check-identity",
                       help="spot-check the determinant identity on random "
                            "weighted graphs")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check_identity)

    p = sub.add_parser("walks", help="walk experiments and censuses")
    p.add_argument("--experiment", choices=("rho", "census"),
                   default="rho")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--d", type=float, default=9.0)
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--z", type=int, default=16)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--v-max", type=int, default=5)
    p.add_argument("--out")
    p.set_defaults(func=cmd_walks)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, linalg.Infeasible) else 2


if __name__ == "__main__":
    sys.exit(main())
