"""The benchmark's workloads still run on the library.

``perfbench/workloads.py`` calls the library by name, and a change that
removes or renames what it calls would otherwise show only in the benchmark's
own smoke test. Here both listed workloads are set up, and one sampling
operation is run and verified, in a temporary root that holds copies of the
committed inputs they read, so that their fixture files go there.
"""

import importlib.util
import os
import shutil
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def load_workloads(monkeypatch):
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_benchmark_workloads_set_up_run_and_verify(tmp_path, monkeypatch):
    monkeypatch.setenv("GRADGEN_WORKERS", "1")  # as the benchmark pins it
    wl = load_workloads(monkeypatch)
    for rel in (wl.TRAIN_SPLIT, wl.RUN_CONFIG, wl.OOD_REF):
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(os.path.join(ROOT, rel), tmp_path / rel)
    wl.TrainLobster(str(tmp_path)).setup(0)
    sample = wl.SampleOod200(str(tmp_path))
    state = sample.setup(0)
    tally = wl.Tally()
    sample.verify(state, sample.run_op(state, 0), tally)
    assert tally.attempted == sample.attempts_per_op(state)
    assert tally.failed == 0
    assert os.listdir(tmp_path / "perfbench" / "out") == []  # each fixture file is removed after its load
