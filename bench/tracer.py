"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of every ``bandtopo`` layer from outside
the package: each wrapped call records a span (name, start, end, parent)
and the counters kept at the same boundary.  Every module binding of a
wrapped function is replaced, including names imported into other modules
(``mvcheck.chern_flux``, ``cohomology.rank_field``, the package
re-exports), and all of them are restored when the tracer is removed.

The ``model`` layer is the eigensolver underneath every other layer.  Its
spans are reported on their own (``model.hamiltonian_s``) but are not
subtracted when a caller's self time is computed, so a layer's self time
keeps the eigensolves it issues itself.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

import numpy as np

MODEL = "model"

# per-layer time metric -> (kind, span name); "total" sums the outermost
# spans of that name, "self" also subtracts the time covered by spans of
# other names (outside the model layer) nested inside them
TIME_METRICS = {
    "model.hamiltonian_s": ("total", "model.hamiltonian"),
    "locus.trace_s": ("self", "locus.extract"),
    "locus.scan_s": ("total", "locus.scan"),
    "locus.refine_s": ("total", "locus.refine"),
    "surfaces.build_s": ("total", "surfaces.build"),
    "surfaces.validate_s": ("total", "surfaces.validate"),
    "invariants.chern_flux_s": ("total", "invariants.chern_flux"),
    "invariants.degree_s": ("total", "invariants.degree"),
    "invariants.loop_s": ("total", "invariants.loop"),
    "invariants.w2_s": ("total", "invariants.w2"),
    "invariants.chern_scan_s": ("total", "invariants.chern_scan"),
    "knots.linking_s": ("total", "knots.linking"),
    "mvcheck.assemble_self_s": ("self", "mvcheck.assemble"),
    "mvcheck.verify_s": ("total", "mvcheck.verify"),
    "cohomology.build_s": ("self", "cohomology.build"),
    "cohomology.mv_s": ("total", "cohomology.mv"),
    "cohomology.uct_s": ("total", "cohomology.uct"),
    "smith.rank_q_s": ("total", "smith.rank_q"),
    "smith.rank_z2_s": ("total", "smith.rank_z2"),
    "smith.snf_s": ("total", "smith.snf"),
    "cli.self_s": ("self", "cli.main"),
}

COUNT_METRICS = (
    "model.eig_calls",
    "model.eig_kpoints",
    "locus.eig_kpoints",
    "locus.cells_flagged",
    "locus.loop_vertices",
    "surfaces.quads",
    "surfaces.eig_kpoints",
    "invariants.svd_calls",
    "invariants.svd_mats",
    "invariants.eig_kpoints",
    "knots.pairs",
    "knots.pairs_skipped",
    "cohomology.cells",
    "cohomology.groups_calls",
    "smith.rank_cols",
    "smith.snf_cols",
)


def layer_of(name):
    return name.split(".", 1)[0]


def _kpoint_count(k):
    shape = np.shape(getattr(k, "coords", k))
    return math.prod(shape[:-1])


class Tracer:
    """In-memory spans and counters for one traced pass at a time."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = defaultdict(int)
        self._patches = []

    # -- recording -----------------------------------------------------

    def open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def caller_layer(self):
        """Layer of the innermost open span outside the model layer."""
        for idx in reversed(self.stack):
            layer = layer_of(self.spans[idx][0])
            if layer != MODEL:
                return layer
        return None

    def inside(self, layer):
        return any(layer_of(self.spans[i][0]) == layer for i in self.stack)

    def count_eig(self, k):
        n = _kpoint_count(k)
        self.counts["model.eig_calls"] += 1
        self.counts["model.eig_kpoints"] += n
        layer = self.caller_layer()
        if layer in ("locus", "surfaces", "invariants"):
            self.counts[f"{layer}.eig_kpoints"] += n

    def reset(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)

    # -- installation --------------------------------------------------

    def _replace_everywhere(self, module, attr, wrapper):
        """Rebind every ``bandtopo`` module attribute holding the original."""
        original = getattr(module, attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "bandtopo" or mod_name.startswith("bandtopo.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _replace_attr(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        import bandtopo  # noqa: F401  (loads every layer module)
        from bandtopo import cli, cohomology, invariants, knots, locus, mvcheck, smith, surfaces
        from bandtopo.cohomology import CellComplex
        from bandtopo.model import BlochModel

        if self._patches:
            raise RuntimeError("tracer already installed")
        tr = self

        def spanned(fn, name, on_return=None, on_call=None):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span = name(args, kwargs) if callable(name) else name
                if on_call is not None:
                    on_call(args, kwargs)
                idx = tr.open(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tr.close(idx)
                if on_return is not None:
                    on_return(result)
                return result

            return wrapper

        def counted_eig(fn):
            @functools.wraps(fn)
            def wrapper(self, k, *args, **kwargs):
                tr.count_eig(k)
                return fn(self, k, *args, **kwargs)

            return wrapper

        # model: H(k) spans, eigensolver counters
        self._replace_attr(BlochModel, "hamiltonian",
                           spanned(BlochModel.hamiltonian, "model.hamiltonian"))
        self._replace_attr(BlochModel, "spectrum", counted_eig(BlochModel.spectrum))
        self._replace_attr(BlochModel, "eigenframes", counted_eig(BlochModel.eigenframes))

        # locus
        def on_scan(res):
            tr.counts["locus.cells_flagged"] += sum(len(v) for v in res.flagged.values())

        def on_extract(res):
            tr.counts["locus.loop_vertices"] += sum(
                len(c.vertices) for c in (*res.loops, *res.open_arcs)
            )

        self._replace_everywhere(locus, "extract_locus",
                                 spanned(locus.extract_locus, "locus.extract", on_extract))
        self._replace_everywhere(locus, "scan_grid",
                                 spanned(locus.scan_grid, "locus.scan", on_scan))
        self._replace_everywhere(locus, "refine_point",
                                 spanned(locus.refine_point, "locus.refine"))

        # surfaces
        def on_surface(surf):
            tr.counts["surfaces.quads"] += surf.n_u * surf.n_v

        for fname in ("sphere_around", "tube_around", "slice_torus"):
            self._replace_everywhere(
                surfaces, fname,
                spanned(getattr(surfaces, fname), "surfaces.build", on_surface),
            )
        self._replace_everywhere(surfaces, "circle_loop",
                                 spanned(surfaces.circle_loop, "surfaces.build"))
        self._replace_everywhere(surfaces, "validate",
                                 spanned(surfaces.validate, "surfaces.validate"))

        # invariants
        for fname, span in (
            ("chern_flux", "invariants.chern_flux"),
            ("degree", "invariants.degree"),
            ("berry_phase", "invariants.loop"),
            ("w1_along", "invariants.loop"),
            ("w2_on", "invariants.w2"),
            ("chern_scan", "invariants.chern_scan"),
        ):
            self._replace_everywhere(invariants, fname,
                                     spanned(getattr(invariants, fname), span))

        svd = np.linalg.svd

        @functools.wraps(svd)
        def counted_svd(a, *args, **kwargs):
            if tr.inside("invariants"):
                tr.counts["invariants.svd_calls"] += 1
                tr.counts["invariants.svd_mats"] += math.prod(np.shape(a)[:-2])
            return svd(a, *args, **kwargs)

        self._replace_attr(np.linalg, "svd", counted_svd)

        # knots
        def on_linking(res):
            tr.counts["knots.pairs"] += len(res["pairs"]) + len(res["skipped"])
            tr.counts["knots.pairs_skipped"] += len(res["skipped"])

        self._replace_everywhere(knots, "linking_matrix",
                                 spanned(knots.linking_matrix, "knots.linking", on_linking))

        # mvcheck
        self._replace_everywhere(mvcheck, "assemble_ledger",
                                 spanned(mvcheck.assemble_ledger, "mvcheck.assemble"))
        self._replace_everywhere(mvcheck, "verify_ledger",
                                 spanned(mvcheck.verify_ledger, "mvcheck.verify"))

        # cohomology
        post_init = CellComplex.__post_init__

        @functools.wraps(post_init)
        def counted_post_init(cx):
            tr.counts["cohomology.cells"] += int(sum(cx.n_cells))
            return post_init(cx)

        self._replace_attr(CellComplex, "__post_init__", counted_post_init)
        for fname in ("complement_complex", "torus_complex"):
            self._replace_everywhere(cohomology, fname,
                                     spanned(getattr(cohomology, fname), "cohomology.build"))

        def on_groups(args, kwargs):
            tr.counts["cohomology.groups_calls"] += 1

        self._replace_everywhere(
            cohomology, "cohomology_groups",
            spanned(cohomology.cohomology_groups, "cohomology.groups", on_call=on_groups),
        )
        self._replace_everywhere(cohomology, "mv_dimension_check",
                                 spanned(cohomology.mv_dimension_check, "cohomology.mv"))
        self._replace_everywhere(cohomology, "uct_check",
                                 spanned(cohomology.uct_check, "cohomology.uct"))

        # smith
        def rank_span(args, kwargs):
            coeff = kwargs.get("coefficients", args[1] if len(args) > 1 else None)
            return "smith.rank_q" if coeff == "Q" else "smith.rank_z2"

        def on_rank(args, kwargs):
            tr.counts["smith.rank_cols"] += int(np.shape(args[0])[1])

        def on_snf(args, kwargs):
            tr.counts["smith.snf_cols"] += int(np.shape(args[0])[1])

        self._replace_everywhere(smith, "rank_field",
                                 spanned(smith.rank_field, rank_span, on_call=on_rank))
        self._replace_everywhere(smith, "smith_normal_form",
                                 spanned(smith.smith_normal_form, "smith.snf", on_call=on_snf))

        # cli
        self._replace_everywhere(cli, "main", spanned(cli.main, "cli.main"))

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- metrics -------------------------------------------------------

    def metrics(self):
        """Per-layer time (s) and count metrics of the recorded spans."""
        spans = self.spans
        children = defaultdict(list)
        for idx, (_, _, _, parent) in enumerate(spans):
            children[parent].append(idx)
        out = {}
        for metric, (kind, name) in TIME_METRICS.items():
            out[metric] = self._span_time(spans, children, name, kind == "self")
        for metric in COUNT_METRICS:
            out[metric] = int(self.counts.get(metric, 0))
        calls = out["model.eig_calls"]
        out["model.kpoints_per_call"] = out["model.eig_kpoints"] / calls if calls else 0.0
        return out

    @staticmethod
    def _span_time(spans, children, target, self_only):
        total = 0.0

        def covered_by_others(idx):
            # outermost spans below idx named neither target nor model.*
            acc = 0.0
            for c in children[idx]:
                name = spans[c][0]
                if name == target or layer_of(name) == MODEL:
                    acc += covered_by_others(c)
                else:
                    acc += spans[c][2] - spans[c][1]
            return acc

        def walk(idx, inside):
            nonlocal total
            name, start, end, _ = spans[idx]
            hit = name == target and not inside
            if hit:
                total += end - start
                if self_only:
                    total -= covered_by_others(idx)
            for c in children[idx]:
                walk(c, inside or hit)

        for root in children[-1]:
            walk(root, False)
        return total

    def dump(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in self.spans
        ]


def unrestored(snapshot):
    """Bindings that differ from a ``bindings_snapshot()`` taken before."""
    return sorted(
        key for key, val in bindings_snapshot().items() if snapshot.get(key) is not val
    )


def bindings_snapshot():
    """Identity of every ``bandtopo`` module attribute, class method and
    ``numpy.linalg.svd``, to check that a tracer left nothing behind."""
    from bandtopo.cohomology import CellComplex
    from bandtopo.model import BlochModel

    snap = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "bandtopo" or mod_name.startswith("bandtopo.")):
            continue
        for key, val in vars(mod).items():
            if callable(val):
                snap[f"{mod_name}.{key}"] = val
    for cls in (BlochModel, CellComplex):
        for key, val in vars(cls).items():
            snap[f"{cls.__module__}.{cls.__name__}.{key}"] = val
    snap["numpy.linalg.svd"] = np.linalg.svd
    return snap
