"""The library surface that perfbench reads, pinned in the test suite.

``perfbench/worker.py`` probes the kernels through ``polyseg.backend``,
``polyseg.BACKEND`` and the ``SupersampledEvaluator._prefix1``/``_prefix2``
tables, and ``perfbench/tracer.py`` wraps library functions by name.  A
rename there would otherwise show up only in the next benchmark run.
"""

import importlib.util
import pathlib
import sys

import numpy as np
import pytest

import polyseg as ps
from polyseg import cli

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def worker():
    """perfbench/worker.py as a module, with its tracer and workloads."""
    saved_path, saved = sys.path[:], {k: sys.modules.get(k) for k in ("tracer", "workloads")}
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
    mod = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(mod)  # puts perfbench/ on sys.path, imports tracer
        yield mod
    finally:
        sys.path[:] = saved_path
        for name, old in saved.items():
            if old is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = old


def test_kernel_probes_run(worker):
    probes = worker.kernel_probes(ps)
    assert set(probes) == {"fill_mask_512", "mask_stats_512x3", "ss_stats_64f16"}
    for per_backend in probes.values():
        assert set(per_backend) == {ps.BACKEND}
        assert all(np.isfinite(ms) and ms > 0 for ms in per_backend.values())


def test_tracer_records_the_loop_stages(worker, tmp_path, capsys):
    tracer_mod = sys.modules[worker.Tracer.__module__]
    assert tracer_mod.__file__ == str(PERFBENCH / "tracer.py")
    img = ps.synth_shape("disk", 64, 64, 0.9, 0.1, {"cx": 32, "cy": 32, "r": 16})
    ps.write_pnm(img, tmp_path / "disk.pgm")
    tracer = tracer_mod.Tracer()
    with tracer:
        rc = cli.main([
            "segment", "--input", str(tmp_path / "disk.pgm"), "--init-circle", "32,32,22",
            "--vertices", "40", "--eta", "5e-4", "--iters", "12",
            "--out", str(tmp_path / "out"),
        ])
    assert rc == 0, capsys.readouterr().err
    summary, _ = tracer_mod.summarize(tracer.spans)
    for name in (
        "evolve.run",
        "raster.SupersampledEvaluator.stats",
        "backend.ss_stats",
        "geometry.is_simple",
        "energy._gradient_from_stats",
        "energy.breakdown_from_stats",
    ):
        assert summary.get(name, {}).get("calls", 0) > 0, name
    assert summary["evolve.run"]["calls"] == 1
    assert summary["raster.SupersampledEvaluator.stats"]["calls"] == 12


def test_gradcheck_evaluates_the_whole_polygon_once(worker, tmp_path, capsys):
    # the tier-1 twin of the CI step "Gradient check whole-polygon
    # evaluations": README's clean gradcheck makes one whole-polygon stats
    # call (the analytic one) and one batched energy for its moves, and
    # builds no moved polygon whose perimeter it would take
    tracer_mod = sys.modules[worker.Tracer.__module__]
    clean = str(tmp_path / "clean.pgm")
    assert cli.main(["synth", "--kind", "disk", "--width", "200", "--height", "200",
                     "--fg", "0.9", "--bg", "0.1", "--cx", "100", "--cy", "100", "--r", "60",
                     "--out", clean]) == 0
    tracer = tracer_mod.Tracer()
    with tracer:
        rc = cli.main(["gradcheck", "--input", clean, "--init-circle", "100,100,70",
                       "--eta", "1e-3"])
    assert rc == 0, capsys.readouterr().err
    names = [span[0] for span in tracer.spans]
    assert names.count("backend.ss_stats") == 1
    assert names.count("energy.breakdown_from_stats") == 1
    assert names.count("geometry.polygon_perimeter") == 0
