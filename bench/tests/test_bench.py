"""Tiny-size checks of the benchmark itself.

    python3 -m pytest -q bench/tests

Each workload runs at a reduced size, untraced once and traced twice with
the same seed.  Every metric named in BENCHMARK.json must be reported, the
work counters must repeat exactly, and the tracer must leave every binding
it replaced as it found it.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (pins BLAS before numpy loads)

sys.path.insert(0, str(run.SRC))

from tracer import Tracer, bindings_snapshot, unrestored  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 5


def is_counter(name):
    leaf = name.split(".", 1)[1]
    return (
        leaf.startswith(("eig_", "svd_"))
        or leaf.endswith("_cols")
        or leaf in ("cells", "quads", "pairs")
    )


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def runs(request):
    name = request.param
    plain = run.run_benchmark(name, SEED, 0, trace=False, tiny=True)
    traced = [run.run_benchmark(name, SEED, 0, trace=True, tiny=True) for _ in range(2)]
    return plain, traced


def test_end_to_end_metrics_present(runs):
    (result, record), _ = runs
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    assert result["attempted"] == len(record["cases"])
    assert result["failed"] <= result["attempted"]
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert record["host"]["blas_threads"] == "1"


def test_per_layer_metrics_present(runs):
    _, traced = runs
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result, _ in traced:
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_counters_repeat(runs):
    _, ((first, _), (second, _)) = runs
    counters = [k for k in first["metrics"] if is_counter(k)]
    assert len(counters) == 12
    for k in counters:
        assert first["metrics"][k]["value"] == second["metrics"][k]["value"], k
    # one operation per seeded case, however many passes ran
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])


def test_wrappers_restored(runs):
    _, traced = runs
    for _, record in traced:
        assert record["unrestored"] == []


def test_partial_last_pass():
    passes = [{"case_s": [3.0, 1.0, 2.0]}, {"case_s": [5.0, 1.0, 2.0]}, {"case_s": [4.0]}]
    assert run._per_case(passes, "case_s") == [[3.0, 5.0, 4.0], [1.0, 1.0], [2.0, 2.0]]
    assert run._cases_that_fit(passes[:2], 3.9) == 0
    assert run._cases_that_fit(passes[:2], 5.5) == 2
    assert run._cases_that_fit(passes[:2], 7.0) == 3


def test_tracer_rebinds_imported_names():
    from bandtopo import cohomology, mvcheck
    from bandtopo.model import BlochModel

    before = bindings_snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        assert mvcheck.chern_flux is not before["bandtopo.mvcheck.chern_flux"]
        assert cohomology.rank_field is not before["bandtopo.cohomology.rank_field"]
        assert BlochModel.spectrum is not before["bandtopo.model.BlochModel.spectrum"]
    finally:
        tracer.remove()
    assert unrestored(before) == []
