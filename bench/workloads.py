"""Benchmark workloads: seeded inputs, the cases that run them, and the
reference each answer is checked against.

Every reference comes from theory or from an oracle computed here with
plain numpy, never from an earlier run of the program:

* ``lattice-lines``: ``bandtopo report --grid 32`` on the four-band lattice
  model (12 loops: 4 companion loops inside the occupied set with Berry
  phase 0, 8 Fermi loops with Berry phase pi, w1 = 1 and w2 = 1), the real
  nodal-loop model (one loop in the plane kz = 0 on cos kx + cos ky = m - 1,
  Berry phase pi, w1 = 1) and the box-domain four-band model (one loop and
  one open arc).  Curve tracing, tubes, loop holonomy, w2 and linking do
  the work.
* ``weyl-points``: the same report on the Weyl lattice model (two points at
  (0, 0, +-arccos(m - 2)) with chirality -sign(kz)) and on two seeded random
  two-band models written as config files.  Their point count comes from a
  dense-grid sign oracle and each chirality from the sign of det dh/dk at
  the reported point.  Scan, refinement, spheres, flux, the degree oracle
  and the Stokes slice scan do the work; the curve tracer does none.
* ``cohomology``: the library calls of ``bandtopo cohomology`` on seeded
  torus translations of a rectangle loop, the Hopf link and a small loop.
  Betti numbers must be (1, 3, 3, 1) for T^3, (c, c, 0, 0) for the tube
  around c loops, (c, 2c, c, 0) for its boundary tori and
  (1, 3 + c, 2 + c, 0) for the complement of c null-homotopic loops.

A case fails on a non-zero exit code, an exception or an answer that
differs from its reference.  Two failures present in the program are
recognised by their exact signature and reported as known defects; any
other failure marks the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

GRID = 32
TINY_GRID = 16

# random two-band recipe: sin(k_axis) plus two seeded harmonics per component
RANDOM_AMPLITUDE = 0.3
ORACLE_RESOLUTION = 96
# generic offset of the oracle grid, so no zero sits on a grid plane
ORACLE_OFFSET = (0.3711, 0.6173, 0.2297)

KNOWN_BOX_W2 = (
    "known defect: verify_ledger asserts the T^3 w2 cancellation law on a "
    "box-domain model and fails it (exit 1)"
)
KNOWN_STOKES = (
    "known defect: stokes_jump_check raises LedgerError because a midpoint "
    "slice passes next to a pair of Weyl points at nearly the same kz (exit 1)"
)


@dataclass
class Outcome:
    status: str  # "ok" | "known" | "wrong"
    detail: str = ""


@dataclass
class Case:
    name: str
    run: object  # callable() -> raw output
    check: object  # callable(raw output) -> Outcome; raises CheckFailed
    info: dict = field(default_factory=dict)


class CheckFailed(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# -- report cases -----------------------------------------------------------


def report_case(name, argv, out_dir, check, info=None):
    """A ``bandtopo report`` call through ``bandtopo.cli.main``."""
    from bandtopo import cli

    def run():
        shutil.rmtree(out_dir, ignore_errors=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["report", *argv, "--out", out_dir])
        return {"rc": rc, "stderr": err.getvalue(), "out_dir": out_dir}

    def checked(raw):
        path = os.path.join(raw["out_dir"], "report.json")
        report = None
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                report = json.load(fh)
        return check(raw["rc"], raw["stderr"], report)

    info = {} if info is None else info
    info["argv"] = argv
    return Case(name, run, checked, info)


def _components(report):
    return report["locus"]["components"]


def _kinds(report):
    out = {}
    for c in _components(report):
        key = (c["type"], c["gap_index"])
        out[key] = out.get(key, 0) + 1
    return out


def _verdicts(report):
    return {v["name"]: v["passed"] for v in report["charges"]["verdicts"]}


def _entries(report, kind=None, gap=None):
    return [
        e for e in report["charges"]["entries"]
        if (kind is None or e["kind"] == kind) and (gap is None or e["gap_index"] == gap)
    ]


def _require_clean_exit(rc, stderr, report):
    require(rc == 0, f"exit {rc}: {stderr.strip()[-200:]}")
    require(report is not None, "no report.json written")
    failed = [k for k, ok in _verdicts(report).items() if not ok]
    require(not failed, f"verdicts failed: {failed}")


def _require_pi_loop(entry, w1):
    require(abs(entry["berry_phase"] - math.pi) < 1e-3,
            f"{entry['id']}: Berry phase {entry['berry_phase']} != pi")
    require(entry["berry_w1"] == w1, f"{entry['id']}: w1 {entry['berry_w1']} != {w1}")


def check_four_band_lattice(rc, stderr, report):
    _require_clean_exit(rc, stderr, report)
    require(_kinds(report) == {("loop", 1): 4, ("loop", 2): 8},
            f"components {_kinds(report)} != 4 companion + 8 Fermi loops")
    for e in _entries(report, "loop", 2):
        _require_pi_loop(e, 1)
        require(e["w2"] == 1, f"{e['id']}: w2 {e['w2']} != 1")
    for e in _entries(report, "loop", 1):
        # both crossing bands are occupied: the occupied frame is smooth
        phase = e["berry_phase"] % (2 * math.pi)
        require(min(phase, 2 * math.pi - phase) < 1e-3, f"{e['id']}: Berry phase {phase} != 0")
        require(e["berry_w1"] == 0, f"{e['id']}: w1 {e['berry_w1']} != 0")
    return Outcome("ok")


def check_nodal_loop(m):
    def check(rc, stderr, report):
        _require_clean_exit(rc, stderr, report)
        require(_kinds(report) == {("loop", 1): 1}, f"components {_kinds(report)} != one loop")
        verts = np.asarray(_components(report)[0]["vertices"])
        kz = (verts[:, 2] + math.pi) % (2 * math.pi) - math.pi
        off_plane = float(np.max(np.abs(kz)))
        off_curve = float(np.max(np.abs(np.cos(verts[:, 0]) + np.cos(verts[:, 1]) - (m - 1))))
        require(off_plane < 1e-3 and off_curve < 1e-3,
                f"loop leaves kz=0, cos kx + cos ky = m-1 by {off_plane:.2e}, {off_curve:.2e}")
        _require_pi_loop(_entries(report, "loop")[0], 1)
        return Outcome("ok")

    return check


def check_four_band_box(rc, stderr, report):
    require(report is not None, f"exit {rc}, no report.json: {stderr.strip()[-200:]}")
    require(_kinds(report) == {("loop", 2): 1, ("arc", 1): 1},
            f"components {_kinds(report)} != one Fermi loop + one arc")
    _require_pi_loop(_entries(report, "loop")[0], 1)
    failed = sorted(k for k, ok in _verdicts(report).items() if not ok)
    if rc == 1 and failed == ["cancellation_w2"]:
        return Outcome("known", KNOWN_BOX_W2)
    require(rc == 0 and not failed, f"exit {rc}, failed verdicts {failed}")
    return Outcome("ok")


def _require_points(report, expected_count):
    require(set(_kinds(report)) <= {("point", 1)},
            f"components {_kinds(report)} are not all gap-1 points")
    points = _entries(report, "point")
    require(len(points) == expected_count, f"{len(points)} points != {expected_count}")
    chir = [e["chirality"] for e in points]
    require(all(c in (-1, 1) for c in chir), f"chiralities {chir} not all +-1")
    require(sum(chir) == 0, f"chiralities {chir} do not sum to 0")
    notes = [e["notes"] for e in points if "degree oracle disagrees" in (e["notes"] or "")]
    require(not notes, f"degree oracle disagrees: {notes}")
    return points


def check_weyl_lattice(m):
    kz0 = math.acos(m - 2.0)

    def check(rc, stderr, report):
        _require_clean_exit(rc, stderr, report)
        for e in _require_points(report, 2):
            pos = np.asarray(e["position"])
            expect = np.array([0.0, 0.0, math.copysign(kz0, pos[2])])
            require(np.max(np.abs(pos - expect)) < 1e-4, f"point {pos} != {expect}")
            # det dh/dk = -sin kz at (0, 0, kz)
            require(e["chirality"] == -int(np.sign(pos[2])),
                    f"chirality {e['chirality']} at kz = {pos[2]:+.4f}")
        return Outcome("ok")

    return check


def check_random_two_band(info):
    """Check against ``info["oracle_points"]``, set by attach_random_oracles."""

    def check(rc, stderr, report):
        if rc == 1 and "slices through unclassified W" in stderr:
            return Outcome("known", KNOWN_STOKES)
        _require_clean_exit(rc, stderr, report)
        for e in _require_points(report, info["oracle_points"]):
            sign = jacobian_sign(info["field"], e["position"])
            require(e["chirality"] == sign,
                    f"chirality {e['chirality']} at {e['position']} != sign det dh/dk {sign}")
        return Outcome("ok")

    return check


# -- two-band field oracle --------------------------------------------------------


def random_two_band_entries(model_seed, amplitude=RANDOM_AMPLITUDE):
    """Field components of the random two-band recipe of the test suite:
    sin(k_axis) plus up to two seeded cos/sin harmonics per component."""
    rng = np.random.default_rng(model_seed)
    comps = []
    for axis in range(3):
        main = [0, 0, 0]
        main[axis] = 1
        entries = [("sin", tuple(main), 1.0)]
        for _ in range(2):
            n = tuple(int(v) for v in rng.integers(-1, 2, size=3))
            if n == (0, 0, 0):
                continue
            kind = "cos" if rng.random() < 0.5 else "sin"
            entries.append((kind, n, float(rng.uniform(-amplitude, amplitude))))
        comps.append(entries)
    return comps


def field_values(field_entries, k):
    k = np.asarray(k, dtype=float)
    out = []
    for entries in field_entries:
        acc = np.zeros(k.shape[:-1])
        for kind, n, amp in entries:
            phase = k @ np.asarray(n, dtype=float)
            acc = acc + amp * (np.cos(phase) if kind == "cos" else np.sin(phase))
        out.append(acc)
    return np.stack(out, axis=-1)


def jacobian_sign(field_entries, k):
    k = np.asarray(k, dtype=float)
    jac = np.zeros((3, 3))
    for row, entries in enumerate(field_entries):
        for kind, n, amp in entries:
            nv = np.asarray(n, dtype=float)
            phase = float(k @ nv)
            d = -amp * math.sin(phase) if kind == "cos" else amp * math.cos(phase)
            jac[row] += d * nv
    return int(np.sign(np.linalg.det(jac)))


def dense_zero_count(field_entries, resolution=ORACLE_RESOLUTION):
    """Clusters of grid cells in which every field component changes sign,
    on an offset periodic grid, with 26-adjacency across the torus seams."""
    step = 2 * math.pi / resolution
    axes = [-math.pi + step * (np.arange(resolution) + off) for off in ORACLE_OFFSET]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    h = field_values(field_entries, pts)
    flagged = np.ones((resolution,) * 3, dtype=bool)
    for c in range(3):
        comp = h[..., c]
        pos = np.zeros_like(flagged)
        neg = np.zeros_like(flagged)
        for shift in np.ndindex(2, 2, 2):
            corner = np.roll(comp, tuple(-s for s in shift), axis=(0, 1, 2))
            pos |= corner > 0
            neg |= corner < 0
        flagged &= pos & neg
    labels, count = ndimage.label(flagged, structure=np.ones((3, 3, 3)))
    parent = list(range(count + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    # merge labels of cells that touch across a periodic seam
    for axis in range(3):
        last = np.take(labels, -1, axis=axis)
        first = np.take(labels, 0, axis=axis)
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                shifted = np.roll(first, (di, dj), axis=(0, 1))
                both = (last > 0) & (shifted > 0)
                for a, b in zip(last[both], shifted[both]):
                    parent[find(int(a))] = find(int(b))
    # cells touching across an edge or corner of the cube wrap in two or
    # three axes at once; the shifted faces above already cover those
    return len({find(i) for i in range(1, count + 1)})


# -- workload builders ---------------------------------------------------------


def build_lattice_lines(seed, work_dir, tiny=False):
    from bandtopo import model

    rng = np.random.default_rng([seed, 1])
    m_lattice = float(rng.uniform(0.7, 1.3))
    m_loop = float(rng.uniform(1.5, 2.5))
    m_box = float(rng.uniform(0.5, 2.0))
    grid = str(TINY_GRID if tiny else GRID)
    specs = [
        ("four-band-linked-lattice", m_lattice, check_four_band_lattice),
        ("nodal-loop-real", m_loop, check_nodal_loop(m_loop)),
        ("four-band-linked", m_box, check_four_band_box),
    ]
    if tiny:
        specs = specs[1:]
    cases = []
    for name, m, check in specs:
        model.builtin(name, m=m)  # rejects an out-of-range parameter here
        argv = ["--model", name, "--param", f"m={m!r}", "--grid", grid]
        cases.append(report_case(name, argv, os.path.join(work_dir, name), check))
    return cases


def build_weyl_points(seed, work_dir, tiny=False):
    from bandtopo import model

    rng = np.random.default_rng([seed, 2])
    m_weyl = float(rng.uniform(1.5, 2.5))
    model_seeds = [int(s) for s in rng.integers(0, 2**31, size=2)]
    grid = str(TINY_GRID if tiny else GRID)
    model.builtin("weyl-lattice", m=m_weyl)
    cases = [
        report_case(
            "weyl-lattice",
            ["--model", "weyl-lattice", "--param", f"m={m_weyl!r}", "--grid", grid],
            os.path.join(work_dir, "weyl-lattice"),
            check_weyl_lattice(m_weyl),
        )
    ]
    for model_seed in model_seeds[: 1 if tiny else 2]:
        entries = random_two_band_entries(model_seed)
        fld = model.TwoBandField([model.CoefficientSpec(e) for e in entries])
        mdl = model.model_from_field(f"random-two-band-{model_seed}", fld, reality=False)
        name = f"random-two-band-{model_seed}"
        config = os.path.join(work_dir, f"{name}.json")
        model.save_model_config(mdl, config)
        argv = ["--config", config, "--grid", grid]
        if tiny:
            argv += ["--mesh", "24x24"]
        info = {"field": entries}
        cases.append(report_case(
            name, argv, os.path.join(work_dir, name), check_random_two_band(info), info,
        ))
    return cases


def attach_random_oracles(cases):
    """Dense-grid point counts for the random models (kept out of set-up)."""
    for case in cases:
        entries = case.info.get("field")
        if entries is None:
            continue
        case.info["oracle_points"] = dense_zero_count(entries)


def _translate(locus, shift, n):
    return [
        {
            "type": comp["type"],
            "vertices": [tuple((v[i] + shift[i]) % n for i in range(3)) for v in comp["vertices"]],
        }
        for comp in locus
    ]


def _expected_betti(c):
    return {
        "total": [1, 3, 3, 1],
        "complement": [1, 3 + c, 2 + c, 0],
        "tube": [c, c, 0, 0],
        "boundary": [c, 2 * c, c, 0],
    }


def mv_case(name, n, locus, tube_voxels):
    from bandtopo import cohomology

    def run():
        dec = cohomology.complement_complex(n, locus, tube_voxels=tube_voxels)
        return [
            cohomology.mv_dimension_check(
                dec.total, dec.complement, dec.tube, dec.boundary, coeff,
                n_components=dec.n_components,
            )
            for coeff in ("Q", "Z2")
        ]

    def check(reports):
        expected = _expected_betti(len(locus))
        for rep in reports:
            require(rep.passed, f"{rep.name} failed: {rep.detail}")
            require(rep.table["betti"] == expected,
                    f"{rep.name}: Betti {rep.table['betti']} != {expected}")
        return Outcome("ok")

    return Case(name, run, check, {"n": n, "tube_voxels": tube_voxels})


def uct_case(name, n, locus, tube_voxels):
    from bandtopo import cohomology

    def run():
        dec = cohomology.complement_complex(n, locus, tube_voxels=tube_voxels)
        spaces = {
            "total": dec.total, "complement": dec.complement,
            "tube": dec.tube, "boundary": dec.boundary,
        }
        return {key: cohomology.uct_check(cx) for key, cx in spaces.items()}

    def check(reports):
        expected = _expected_betti(len(locus))
        for key, rep in reports.items():
            require(rep.passed, f"{rep.name} failed: {rep.detail}")
            require(rep.table["integral_ranks"] == expected[key],
                    f"{rep.name}: ranks {rep.table['integral_ranks']} != {expected[key]}")
        return Outcome("ok")

    return Case(name, run, check, {"n": n, "tube_voxels": tube_voxels})


def build_cohomology(seed, work_dir, tiny=False):
    from bandtopo import cohomology

    rng = np.random.default_rng([seed, 3])
    shifts = [tuple(int(v) for v in rng.integers(0, 16, size=3)) for _ in range(3)]
    small = [cohomology.voxel_rect_loop(8, lo=2, hi=6, plane_z=4)]
    if tiny:
        return [
            mv_case("rect-loop-8", 8, _translate(small, shifts[0], 8), 1),
            uct_case("loop-8-uct", 8, _translate(small, shifts[2], 8), 1),
        ]
    rect = [cohomology.voxel_rect_loop(16, lo=2, hi=12, plane_z=8)]
    hopf = cohomology.voxel_hopf_link(16)
    return [
        mv_case("rect-loop-16", 16, _translate(rect, shifts[0], 16), 2),
        mv_case("hopf-link-16", 16, _translate(hopf, shifts[1], 16), 1),
        uct_case("loop-8-uct", 8, _translate(small, shifts[2], 8), 1),
    ]


WORKLOADS = {
    "lattice-lines": build_lattice_lines,
    "weyl-points": build_weyl_points,
    "cohomology": build_cohomology,
}
