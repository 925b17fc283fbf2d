"""Command-line driver: locate, charges, verify, scan, link, cohomology,
report.

All reports are JSON-first (schema_version tagged, sorted keys, fixed
component ordering) with human summaries on stdout; plot data (Chern scans,
Wilson spectra) goes to CSV.  Exit codes: 0 success, 1 verification
failure, 2 locus classification failure, 64 usage or config errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .cohomology import (
    MIN_COMPLEX_RESOLUTION,
    complement_complex,
    klein_complex,
    mv_dimension_check,
    torus_complex,
    uct_check,
    voxel_hopf_link,
    voxel_point,
    voxel_rect_loop,
    voxelize_polyline,
    cohomology_groups,
)
from .exceptions import (
    BandTopoError,
    ComplexError,
    ConfigError,
    LocusAmbiguityError,
)
from .invariants import chern_scan
from .knots import linking_matrix
from .locus import MIN_SCAN_RESOLUTION, extract_locus, split_components
from .model import TWO_PI, _integer, builtin, load_model_config, read_json_file
from .mvcheck import ChargeLedger, LedgerEntry, assemble_ledger, verify_ledger
from .surfaces import MIN_MESH

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_LOCUS_AMBIGUOUS = 2
EXIT_USAGE = 64

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _add_options(p, *names):
    """Register the named options of ``_OPTIONS`` on a subcommand, then
    ``--out`` and ``--json``."""
    for name in names:
        for flag, kwargs in _OPTIONS[name]:
            p.add_argument(flag, **kwargs)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--json", action="store_true", help="print the JSON report")


def _parse_params(pairs):
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--param expects K=V, got {pair!r}")
        key, val = pair.split("=", 1)
        try:
            out[key] = float(val)
        except ValueError:
            out[key] = val
    return out


def _load_model(args):
    if args.config:
        return load_model_config(args.config)
    if args.model:
        return builtin(args.model, **_parse_params(args.param))
    raise ConfigError("a model is required: pass --model NAME or --config PATH")


def _int_at_least(text, floor, what):
    n = int(text)  # argparse reports a ValueError as an invalid value
    if n < floor:
        raise argparse.ArgumentTypeError(f"{what} must be at least {floor}, got {n}")
    return n


def _grid_size(text):
    """``--grid`` type: an integer scan resolution of at least 8."""
    return _int_at_least(text, MIN_SCAN_RESOLUTION, "scan resolution")


def _complex_resolution(text):
    """``cohomology --resolution`` type: an integer of at least 4, the
    smallest cubical T^3."""
    return _int_at_least(text, MIN_COMPLEX_RESOLUTION, "complex resolution")


def _slice_count(text):
    """``scan --slices`` type: an integer number of slices of at least 1."""
    return _int_at_least(text, 1, "slice count")


def _tube_voxel_radius(text):
    """``cohomology --tube-voxels`` type: an integer tube radius of at least 1."""
    return _int_at_least(text, 1, "tube radius in voxels")


def _positive_radius(text):
    """``--tube-radius`` type: a finite radius above 0."""
    r = float(text)  # argparse reports a ValueError as an invalid value
    if not (math.isfinite(r) and r > 0):
        raise argparse.ArgumentTypeError(f"tube radius must be finite and above 0, got {text}")
    return r


def _mesh_size(text):
    """``--mesh`` type: NxM surface mesh sizes, each at least 3."""
    try:
        nu, nv = (int(n) for n in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected NxM, got {text!r}") from None
    if nu < MIN_MESH or nv < MIN_MESH:
        raise argparse.ArgumentTypeError(
            f"mesh sizes must be at least {MIN_MESH}, got {text!r}"
        )
    return nu, nv


def _slice_values(text):
    """``--values`` type: a comma-separated list of finite floats."""
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from None
    if not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(f"slice coordinates must be finite, got {text!r}")
    return values


# the options a subcommand may read, by group: each subcommand registers
# only the groups it reads
_OPTIONS = {
    "model": [
        ("--model", dict(help="builtin model name")),
        ("--param", dict(action="append", default=[], metavar="K=V",
                         help="builtin model parameter (repeatable)")),
        ("--config", dict(help="model config file (JSON)")),
    ],
    "grid": [("--grid", dict(type=_grid_size, default=48, help="scan resolution per axis"))],
    "mesh": [("--mesh", dict(type=_mesh_size, default="64x64", metavar="NxM",
                             help="surface mesh size"))],
    "tube-radius": [("--tube-radius", dict(type=_positive_radius, default=None))],
}

_NEGATIVE_START = re.compile(r"-[0-9.]")


def _bind_values(argv):
    """Rewrite ``--values X`` as ``--values=X`` when X starts with ``-`` and a
    digit or ``.``; an abbreviation such as ``--val`` is treated the same.

    argparse reads a token such as ``-2.0,0.0,2.0`` as an option string (only a
    lone negative number is exempt), which would leave ``--values`` without
    its argument.
    """
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if (len(tok) > 2 and "--values".startswith(tok) and i + 1 < len(argv)
                and _NEGATIVE_START.match(argv[i + 1])):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _write_json(args, name, payload):
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _verdict_lines(verdicts, lines):
    """Append a PASS, FAIL or N/A line with its detail for each verdict;
    the exit status they give."""
    for v in verdicts:
        status = "N/A" if not v.applicable else "PASS" if v.passed else "FAIL"
        lines.append(f"  {status} {v.name}: {v.detail}")
    return EXIT_OK if all(v.passed for v in verdicts) else EXIT_VERIFY_FAILED


def _emit(args, payload, lines):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


# -- subcommands ---------------------------------------------------------------


def cmd_locate(args):
    model = _load_model(args)
    locus = extract_locus(model, resolution=args.grid)
    payload = locus.to_json()
    path = _write_json(args, "locus.json", payload)
    lines = [f"model: {model.name}"]
    if locus.is_empty:
        lines.append("no nodal set found")
    for comp in split_components(locus):
        if comp.kind == "point":
            pos = np.round(comp.item.position, 6).tolist()
            lines.append(f"  {comp.id}: point at {pos} (gap {comp.gap_index})")
        elif comp.kind == "loop":
            lines.append(
                f"  {comp.id}: loop, {len(comp.item)} vertices, "
                f"winding {list(comp.item.winding)} (gap {comp.gap_index})"
            )
        else:
            lines.append(
                f"  {comp.id}: open arc, {len(comp.item)} vertices "
                f"(gap {comp.gap_index})"
            )
    lines.append(f"wrote {path}")
    _emit(args, payload, lines)
    return EXIT_OK


def _compute_ledger(args, model):
    locus = extract_locus(model, resolution=args.grid)
    ledger = assemble_ledger(
        model, locus, mesh=args.mesh, tube_radius=args.tube_radius,
    )
    return locus, ledger


def cmd_charges(args):
    model = _load_model(args)
    _, ledger = _compute_ledger(args, model)
    payload = ledger.to_json()
    path = _write_json(args, "charges.json", payload)
    lines = [f"model: {model.name}"]
    for e in ledger.entries:
        parts = []
        if e.chirality is not None:
            parts.append(f"chirality {e.chirality:+d} (res {e.chirality_residual:.2e})")
        if e.berry_phase is not None:
            parts.append(f"berry {e.berry_phase:.4f}")
        if e.berry_w1 is not None:
            parts.append(f"w1 {e.berry_w1}")
        if e.w2 is not None:
            parts.append(f"w2 {e.w2}")
        if e.notes:
            parts.append(e.notes)
        lines.append(f"  {e.id} ({e.kind}, gap {e.gap_index}): " + "; ".join(parts))
    totals = ledger.totals()
    lines.append(
        f"totals: sum chirality = {totals['chirality_sum']}, "
        f"sum w2 mod 2 = {totals['w2_sum_mod2']}"
    )
    lines.append(f"wrote {path}")
    _emit(args, payload, lines)
    if args.wilson_csv:
        _export_wilson(args, ledger)
    return EXIT_OK


def _export_wilson(args, ledger):
    """Write the Wilson spectrum of every w2 the ledger computed."""
    for entry in ledger.entries:
        if entry.w2_result is None:
            continue
        path = os.path.join(args.out, f"wilson_{entry.id}.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["v", "wilson_angle"])
            for row in entry.w2_result.spectrum:
                writer.writerow([repr(float(row[0])), repr(float(row[1]))])
        print(f"wrote {path}")


def _ledger_from_file(path, model):
    """The ledger a ``charges.json`` file holds; ConfigError unless it is
    well formed and was written for ``model``."""
    data = read_json_file(path, "ledger file")
    try:
        ledger = ChargeLedger(
            model_name=data.get("model"),
            occupied_count=_integer(data.get("occupied_count", 1), "ledger occupied_count"),
        )
        ledger.entries.extend(LedgerEntry.from_record(rec) for rec in data["entries"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed ledger file {path}: {exc!r}") from exc
    if ledger.model_name != model.name:
        raise ConfigError(
            f"ledger file {path} is for model {ledger.model_name!r}, not {model.name!r}"
        )
    return ledger


def cmd_verify(args):
    model = _load_model(args)
    if args.ledger_file:
        ledger = _ledger_from_file(args.ledger_file, model)
    else:
        _, ledger = _compute_ledger(args, model)
    verify_ledger(model, ledger, axis=args.axis)
    payload = ledger.to_json()
    path = _write_json(args, "verify.json", payload)
    lines = [f"model: {model.name}"]
    status = _verdict_lines(ledger.verdicts, lines)
    lines.append(f"wrote {path}")
    _emit(args, payload, lines)
    return status


def cmd_scan(args):
    model = _load_model(args)
    if args.values is not None:
        values = args.values
    else:
        values = [-math.pi + TWO_PI * i / args.slices for i in range(args.slices)]
    entries = chern_scan(model, args.axis, values, n_u=args.mesh[0], n_v=args.mesh[1])
    payload = {
        "schema_version": 1,
        "model": model.name,
        "axis": args.axis,
        "entries": [e.to_record() for e in entries],
    }
    _write_json(args, "scan.json", payload)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "scan.csv")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["value", "chern", "skipped", "reason"])
        for e in entries:
            writer.writerow(
                [
                    repr(e.value),
                    "" if e.chern is None else e.chern.value,
                    int(e.skipped),
                    e.reason,
                ]
            )
    lines = [f"model: {model.name}, axis {args.axis}"]
    for e in entries:
        if e.skipped:
            lines.append(f"  {e.value:+.4f}: skipped ({e.reason})")
        else:
            lines.append(f"  {e.value:+.4f}: C = {e.chern.value}")
    lines.append(f"wrote {csv_path}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_link(args):
    model = _load_model(args)
    locus = extract_locus(model, resolution=args.grid)
    comps = split_components(locus)
    matrix = linking_matrix(comps, on_torus=model.domain.is_torus)
    payload = {"schema_version": 1, "model": model.name, **matrix}
    path = _write_json(args, "linking.json", payload)
    lines = [f"model: {model.name}"]
    for rec in matrix["pairs"]:
        lines.append(f"  link({rec['pair'][0]}, {rec['pair'][1]}) = {rec['value']}")
    for rec in matrix["skipped"]:
        lines.append(f"  skip({rec['pair'][0]}, {rec['pair'][1]}): {rec['reason']}")
    lines.append(f"wrote {path}")
    _emit(args, payload, lines)
    return EXIT_OK


FIXTURES = ("none", "point", "loop", "link", "torsion")

# below this the loop fixture's square (or the gap around it) is narrower
# than the 2r + 2 = 4 cells a radius-1 tube needs
LOOP_FIXTURE_MIN_RESOLUTION = 8


def _fixture_locus(name, resolution):
    if name == "point":
        return [voxel_point((resolution // 2,) * 3)]
    if name == "loop":
        if resolution < LOOP_FIXTURE_MIN_RESOLUTION:
            raise ConfigError(
                f"--fixture loop needs --resolution >= {LOOP_FIXTURE_MIN_RESOLUTION}, "
                f"got {resolution}"
            )
        hi = max(resolution - 4, resolution // 2 + 2)
        return [voxel_rect_loop(resolution, lo=2, hi=hi, plane_z=resolution // 2)]
    if name == "link":
        try:
            return voxel_hopf_link(resolution)
        except ComplexError as exc:  # the fixture's size floor: bad input
            raise ConfigError(f"--fixture link: {exc}") from exc
    return []


def _locus_from_file(path, resolution):
    """Voxelized loop and point components of a locus.json."""
    data = read_json_file(path, "locus file")
    locus = []
    try:
        for comp in data["components"]:
            if comp["type"] == "loop":
                locus.append(voxelize_polyline(comp["vertices"], resolution))
            elif comp["type"] == "point":
                g = [
                    int(round((p + math.pi) * resolution / TWO_PI)) % resolution
                    for p in comp["position"]
                ]
                locus.append(voxel_point(g))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed locus file {path}: {exc!r}") from exc
    return locus


def _decompose(args, locus):
    """The tube decomposition at ``--tube-voxels``; by default at radius 2,
    or at radius 1 where complement_complex rejects radius 2."""
    if args.tube_voxels is not None:
        return complement_complex(args.resolution, locus, tube_voxels=args.tube_voxels)
    try:
        return complement_complex(args.resolution, locus, tube_voxels=2)
    except ComplexError:
        return complement_complex(args.resolution, locus, tube_voxels=1)


def cmd_cohomology(args):
    reports = []
    tables = []
    resolution = args.resolution
    if args.fixture == "torsion":
        cx = klein_complex(8)
        rep = uct_check(cx)
        reports.append(rep)
        tables.append(
            {"space": cx.name, "groups": {
                "Z": cohomology_groups(cx, "Z").to_record(),
                "Z2": cohomology_groups(cx, "Z2").to_record(),
            }}
        )
    else:
        if args.from_locus:
            locus = _locus_from_file(args.from_locus, resolution)
        else:
            locus = _fixture_locus(args.fixture, resolution)
        if not locus:
            cx = torus_complex(resolution)
            for coeff in ("Q", "Z2"):
                tables.append(
                    {"space": cx.name, "groups": {coeff: cohomology_groups(cx, coeff).to_record()}}
                )
            if args.integral:
                reports.append(uct_check(cx))
        else:
            dec = _decompose(args, locus)
            spaces = {
                "total": dec.total,
                "complement": dec.complement,
                "tube": dec.tube,
                "boundary": dec.boundary,
            }
            groups = {
                key: {coeff: cohomology_groups(cx, coeff) for coeff in ("Q", "Z2")}
                for key, cx in spaces.items()
            }
            for coeff in ("Q", "Z2"):
                reports.append(
                    mv_dimension_check(*spaces.values(), coeff, n_components=dec.n_components)
                )
            for key, cx in spaces.items():
                tables.append(
                    {"space": cx.name,
                     "groups": {coeff: g.to_record() for coeff, g in groups[key].items()}}
                )
            if args.integral:
                reports.extend(uct_check(cx) for cx in spaces.values())
    payload = {
        "schema_version": 1,
        "resolution": resolution,
        "fixture": args.fixture,
        "tables": tables,
        "verdicts": [r.to_record() for r in reports],
    }
    path = _write_json(args, "cohomology.json", payload)
    lines = []
    for t in tables:
        for coeff, rec in sorted(t["groups"].items()):
            lines.append(
                f"  {t['space']:>24} [{coeff:>2}]: ranks {rec['ranks']}"
                + (f" torsion {rec['torsion']}" if any(rec["torsion"]) else "")
            )
    status = _verdict_lines(reports, lines)
    lines.append(f"wrote {path}")
    _emit(args, payload, lines)
    return status


def cmd_report(args):
    model = _load_model(args)
    locus, ledger = _compute_ledger(args, model)
    verify_ledger(model, ledger, axis=args.axis)
    comps = split_components(locus)
    linking = linking_matrix(comps, on_torus=model.domain.is_torus)
    payload = {
        "schema_version": 1,
        "tool_version": __version__,
        "model": model.name,
        "locus": locus.to_json(),
        "charges": ledger.to_json(),
        "linking": linking,
    }
    path = _write_json(args, "report.json", payload)
    lines = [f"model: {model.name}"]
    lines.append(
        f"  components: {len(comps)} "
        f"({sum(1 for c in comps if c.kind == 'point')} points, "
        f"{sum(1 for c in comps if c.kind == 'loop')} loops, "
        f"{sum(1 for c in comps if c.kind == 'arc')} arcs)"
    )
    status = _verdict_lines(ledger.verdicts, lines)
    lines.append(f"wrote {path}")
    _emit(args, payload, lines)
    return status


def build_parser():
    parser = _Parser(prog="bandtopo", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("locate", help="extract the nodal locus")
    _add_options(p, "model", "grid")
    p.set_defaults(func=cmd_locate)

    p = sub.add_parser("charges", help="compute per-component charges")
    _add_options(p, "model", "grid", "mesh", "tube-radius")
    p.add_argument("--wilson-csv", action="store_true",
                   help="export Wilson eigenphase tracks per loop")
    p.set_defaults(func=cmd_charges)

    p = sub.add_parser("verify", help="run cancellation verdicts")
    _add_options(p, "model", "grid", "mesh", "tube-radius")
    p.add_argument("--axis", default="z", choices="xyz")
    p.add_argument("--ledger-file", help="verify a precomputed charges.json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="slice Chern scan")
    _add_options(p, "model", "mesh")
    p.add_argument("--axis", default="z", choices="xyz")
    p.add_argument(
        "--values", type=_slice_values, metavar="C1,C2,...",
        help="comma-separated slice coordinates in [-pi, pi); negative values "
        "work in both forms, --values -2,0,2 and --values=-2,0,2",
    )
    p.add_argument("--slices", type=_slice_count, default=9)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("link", help="pairwise linking numbers")
    _add_options(p, "model", "grid")
    p.set_defaults(func=cmd_link)

    p = sub.add_parser("cohomology", help="cellular cohomology checks")
    _add_options(p)
    p.add_argument("--fixture", default="loop", choices=FIXTURES)
    p.add_argument("--from-locus", help="voxelize a locus.json instead")
    p.add_argument("--resolution", type=_complex_resolution, default=16,
                   help="cubes per axis of T^3 (at least 4)")
    p.add_argument("--tube-voxels", type=_tube_voxel_radius, default=None,
                   help="tube radius in voxels (default 2, or 1 where a radius-2 "
                   "tube touches itself or fills the torus)")
    p.add_argument("--integral", action=argparse.BooleanOptionalAction, default=True)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("report", help="consolidated JSON report")
    _add_options(p, "model", "grid", "mesh", "tube-radius")
    p.add_argument("--axis", default="z", choices="xyz")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_bind_values(argv))
    except SystemExit as exc:  # usage errors (64), --help and --version (0)
        return exc.code
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LocusAmbiguityError as exc:
        print(f"locus classification error: {exc}", file=sys.stderr)
        return EXIT_LOCUS_AMBIGUOUS
    except BandTopoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
