"""Command-line interface: construction, verification, tabulation, export.

Every subcommand is deterministic for a fixed seed and configuration;
file outputs are byte-identical across runs.  Exit codes: 0 success,
1 failed verification gate, 2 usage or parameter error.
"""

import argparse
import json
import sys

import numpy as np

from .array import equizonal_enclosed_volume, make_archimedean
from .mesh import csv_text, graph_slice_mesh, profile_curve, revolve_mesh, write_obj
from .scaling import make_scaling, mk_closed_form, mk_quadrature
from .verify import app_statistical_test, interior_points, random_regions, sample_surface

__all__ = ["main", "run"]

RESIDUAL_GATE = 1e-8
INTEGRAL_GATE = 1e-6
P_FLOOR = 0.001
Z_THRESHOLD = 4.0
MAX_Z_OUTLIERS = 1


def _fmt(value):
    """Render a JSON-ready structure with 17-significant-digit floats."""
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_fmt(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return json.dumps(value)


def _write(text, out_path):
    """Write text to ``out_path`` with LF line ends, or to stdout."""
    if out_path:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(doc, out_path):
    _write(_fmt(doc) + "\n", out_path)


def _common(sub):
    sub.add_argument("--config", default=None, help="JSON file of flag defaults")
    sub.add_argument("--out", default=None, help="output file (default stdout)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="archarray",
        description="Constant-factor projection hypersurfaces: build, verify, export.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("mk-table", help="table of profile domain endpoints M_k")
    p.add_argument("--k-min", type=int, default=2)
    p.add_argument("--k-max", type=int, default=8)
    _common(p)

    p = subs.add_parser("scaling", help="profile curve CSV")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=int, default=257)
    _common(p)

    p = subs.add_parser("verify", help="residual / integral / statistical gates")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--mode", choices=("residual", "integral", "statistical"),
                   required=True)
    p.add_argument("--regions", type=int, default=20)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    _common(p)

    p = subs.add_parser("volume", help="total area vs closed form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--enclosed", action="store_true")
    p.add_argument("--samples", type=int, default=0,
                   help="MC cross-check sample count for --enclosed")
    p.add_argument("--seed", type=int, default=0)
    _common(p)

    p = subs.add_parser("mesh", help="OBJ export (n = 3 or base dim 2)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--res", type=int, default=64)
    _common(p)

    p = subs.add_parser("sample", help="CSV of surface sample points")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    _common(p)

    return parser


def _apply_config(parser, argv):
    """Seed subparser defaults from --config JSON; explicit flags win."""
    if "--config" not in argv:
        return
    path = argv[argv.index("--config") + 1]
    with open(path) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError("config file must hold a JSON object")
    mapped = {key.replace("-", "_"): value for key, value in config.items()}
    for action in parser._subparsers._group_actions:
        for sub in action.choices.values():
            known = {a.dest for a in sub._actions}
            hits = {k: v for k, v in mapped.items() if k in known}
            sub.set_defaults(**hits)
            # A config-supplied value satisfies a required flag.
            for sub_action in sub._actions:
                if sub_action.required and sub_action.dest in hits:
                    sub_action.required = False


def _cmd_mk_table(args):
    if args.k_min < 2 or args.k_max < args.k_min:
        raise ValueError("need 2 <= k-min <= k-max")
    lines = ["k,mk_quadrature,mk_closed_form,abs_diff"]
    for k in range(args.k_min, args.k_max + 1):
        quad = mk_quadrature(k)
        closed = mk_closed_form(k)
        lines.append("%d,%.17g,%.17g,%.17g" % (k, quad, closed, abs(quad - closed)))
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_scaling(args):
    _write(csv_text(["x", "f"], profile_curve(make_scaling(args.k), args.samples)), args.out)
    return 0


def _verify_residual(h, args):
    count = args.samples or 10000
    delta = 1e-6 * h.base.inradius()
    pts = interior_points(h.base, count, boundary_offset=delta)
    residuals = np.abs(h.app_residual(pts))
    worst = float(np.max(residuals))
    return {
        "mode": "residual",
        "points": count,
        "max_abs_residual": worst,
        "gate": RESIDUAL_GATE,
        "pass": bool(worst <= RESIDUAL_GATE),
    }


def _verify_integral(h, args):
    regions = random_regions(h.base, args.regions, seed=args.seed)
    coeff = h.projection_constant
    rows = []
    worst = 0.0
    for u in regions:
        patch = h.patch_volume(u, seed=args.seed)
        clip = u.clipped_volume(h.base, seed=args.seed)
        predicted = coeff * clip
        rel = abs(patch - predicted) / abs(predicted)
        worst = max(worst, rel)
        rows.append({
            "region": u.describe(),
            "patch_volume": patch,
            "predicted": predicted,
            "rel_error": rel,
        })
    return {
        "mode": "integral",
        "constant": coeff,
        "regions": rows,
        "max_rel_error": worst,
        "gate": INTEGRAL_GATE,
        "pass": bool(worst <= INTEGRAL_GATE),
    }


def _verify_statistical(h, args):
    samples = args.samples or 10 ** 6
    regions = random_regions(h.base, args.regions, seed=args.seed)
    report = app_statistical_test(h, regions, samples, seed=args.seed + 1)
    ok = report.passed(p_floor=P_FLOOR, z_threshold=Z_THRESHOLD,
                       max_outliers=MAX_Z_OUTLIERS)
    doc = report.as_dict()
    doc["mode"] = "statistical"
    doc["pass"] = bool(ok)
    return doc


def _cmd_verify(args):
    h = make_archimedean(args.n, args.k, args.r)
    if args.mode == "residual":
        doc = _verify_residual(h, args)
    elif args.mode == "integral":
        doc = _verify_integral(h, args)
    else:
        doc = _verify_statistical(h, args)
    doc["schema"] = 1
    doc["n"] = args.n
    doc["k"] = args.k
    doc["r_scale"] = args.r
    _emit(doc, args.out)
    return 0 if doc["pass"] else 1


def _cmd_volume(args):
    h = make_archimedean(args.n, args.k, args.r)
    tv = h.total_volume()
    rel = abs(tv.value - tv.closed_form) / tv.closed_form
    doc = {
        "schema": 1,
        "n": args.n,
        "k": args.k,
        "r_scale": args.r,
        "total": {
            "numeric": tv.value,
            "closed_form": tv.closed_form,
            "rel_difference": rel,
            "error_estimate": tv.error_estimate,
        },
    }
    if args.enclosed:
        ev = h.enclosed_volume(samples=args.samples, seed=args.seed)
        block = {
            "numeric": ev.value,
            "error_estimate": ev.error_estimate,
        }
        if args.k == args.n - 1:
            closed = equizonal_enclosed_volume(args.n, args.r)
            block["closed_form"] = closed
            block["rel_difference"] = abs(ev.value - closed) / closed
        if ev.mc_value is not None:
            block["mc_value"] = ev.mc_value
            block["mc_error"] = ev.mc_error
        doc["enclosed"] = block
    _emit(doc, args.out)
    return 0


def _cmd_mesh(args):
    if not args.out:
        raise ValueError("mesh export needs --out")
    h = make_archimedean(args.n, args.k, args.r)
    if h.n != 3 and h.base_dim != 2:
        raise ValueError("mesh export needs n = 3 or a 2-dimensional base")
    mesh = revolve_mesh(h, args.res, args.res) if h.n == 3 else graph_slice_mesh(h, args.res)
    write_obj(mesh, args.out)
    return 0


def _cmd_sample(args):
    h = make_archimedean(args.n, args.k, args.r)
    pts = sample_surface(h, args.count, seed=args.seed)
    _write(csv_text([f"x{i}" for i in range(h.n)], pts), args.out)
    return 0


_COMMANDS = {
    "mk-table": _cmd_mk_table,
    "scaling": _cmd_scaling,
    "verify": _cmd_verify,
    "volume": _cmd_volume,
    "mesh": _cmd_mesh,
    "sample": _cmd_sample,
}


def run(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        _apply_config(parser, argv)
    except (OSError, ValueError, IndexError, json.JSONDecodeError) as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return 2
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
