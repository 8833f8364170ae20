"""The acceptance driver's commands and config files, without running them.

``gradgen`` and ``gen_ood_lobsters`` are replaced by recorders that create
each command's output, so a run takes seconds and a rerun finds every
artifact in place.
"""

import importlib.util
import os

import pytest

from gradgen.graphdata import Graph, save_graphs

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "run_acceptance.py")
N_TEST = 3  # graphs in every stub <ckpt>.test.g

DATA = [
    "gen-data lobster lobster.g --seed 7",
    "gen-data cycles cycles.g --seed 7",
    "gen_ood_lobsters ood_lobster_ref.g",
]
LOBSTER = [
    "train lobster.g --config lobster.cfg --out lobster.ckpt --resume",
    "sample lobster.ckpt 3 --out lobster_samples.g",
    "eval lobster_samples.g lobster.ckpt.test.g --out lobster_eval.txt --validity",
    "sample lobster.ckpt 100 --out timing_full.g --seed 9",
    "sample lobster.ckpt 100 --out timing_decoder_only.g --mode grad_d --seed 9",
    "sample lobster.ckpt 20 --out ood_samples.g --fixed-n 200 --seed 10",
    "eval ood_samples.g ood_lobster_ref.g --out ood_eval.txt",
]
CYCLES = [
    "train cycles.g --config cycles.cfg --out cycles.ckpt --resume",
    "sample cycles.ckpt 3 --out cycles_samples.g",
    "eval cycles_samples.g cycles.ckpt.test.g --out cycles_eval.txt",
]
SMOKE = [
    "train lobster.g --config smoke.cfg --out smoke.ckpt --resume",
    "sample smoke.ckpt 3 --out smoke_samples.g",
    "eval smoke_samples.g smoke.ckpt.test.g --out smoke_eval.txt --validity",
]
GRAD_R = ["train lobster.g --config lobster_r.cfg --out lobster_r.ckpt --resume"]
K2 = [
    "train lobster.g --config lobster_k2.cfg --out lobster_k2.ckpt --resume",
    "sample lobster_k2.ckpt 3 --out lobster_k2_samples.g",
    "eval lobster_k2_samples.g lobster_k2.ckpt.test.g --out lobster_k2_eval.txt",
]
K8 = [
    "train lobster.g --config lobster_k8.cfg --out lobster_k8.ckpt --resume",
    "sample lobster_k8.ckpt 3 --out lobster_k8_samples.g",
    "eval lobster_k8_samples.g lobster_k8.ckpt.test.g --out lobster_k8_eval.txt",
]
ALL = DATA + LOBSTER + CYCLES + SMOKE + GRAD_R + K2 + K8

QUICK = (
    "seed = 7\nd = 8\nheads = 2\nd_s_decoder = 4\nd_s_flow = 4\nM = 1\nR = 2\nC = 3\n"
    "decoder_epochs = 2\nflow_epochs = 2\nbatch = 10\ntau = 0.001\n"
)
CONFIGS = {
    "lobster.cfg": "seed = 7\n",
    "cycles.cfg": "seed = 7\n",
    "smoke.cfg": "seed = 7\ndecoder_epochs = 150\nflow_epochs = 240\n",
    "lobster_r.cfg": "seed = 7\nmode = grad_r\n",
    "lobster_k2.cfg": "seed = 7\nK = 2\n",
    "lobster_k8.cfg": "seed = 7\nK = 8\n",
}
QUICK_CONFIGS = {
    "lobster.cfg": QUICK,
    "cycles.cfg": QUICK,
    "smoke.cfg": QUICK,
    "lobster_r.cfg": QUICK + "mode = grad_r\n",
    "lobster_k2.cfg": QUICK + "K = 2\n",
    "lobster_k8.cfg": QUICK + "K = 8\n",
}


def run_driver(res, argv, monkeypatch):
    """Run the driver's main() on ``res`` and return its commands, with paths
    inside ``res`` given relative to it."""
    spec = importlib.util.spec_from_file_location("run_acceptance", SCRIPT)
    driver = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(driver)
    prefix = str(res) + os.sep
    calls = []

    def record(*args):
        calls.append(" ".join(a[len(prefix):] if a.startswith(prefix) else a for a in map(str, args)))

    def fake_gradgen(*args):
        record(*args)
        args = list(map(str, args))
        out = args[2] if args[0] == "gen-data" else args[args.index("--out") + 1]
        open(out, "w").close()
        if args[0] == "train":
            save_graphs(out + ".test.g", [Graph(2, [(0, 1)])] * N_TEST)

    def fake_gen_ood_lobsters(path):
        record("gen_ood_lobsters", path)
        open(path, "w").close()

    monkeypatch.setattr(driver, "gradgen", fake_gradgen)
    monkeypatch.setattr(driver, "gen_ood_lobsters", fake_gen_ood_lobsters)
    monkeypatch.setattr("sys.argv", ["run_acceptance.py", "--results", str(res), *argv])
    assert driver.main() == 0
    return calls


def configs(res):
    return {name: (res / name).read_text() for name in sorted(os.listdir(res)) if name.endswith(".cfg")}


@pytest.mark.parametrize(
    "argv, commands, cfgs",
    [
        ([], ALL, CONFIGS),
        (["--quick"], ALL, QUICK_CONFIGS),
        (["--only", "k8", "cycles"], DATA + CYCLES + K8, {k: CONFIGS[k] for k in ("cycles.cfg", "lobster_k8.cfg")}),
        (["--only", "grad_r"], DATA + GRAD_R, {"lobster_r.cfg": CONFIGS["lobster_r.cfg"]}),
    ],
    ids=["default", "quick", "only-k8-cycles", "only-grad_r"],
)
def test_driver_commands_and_configs(tmp_path, monkeypatch, argv, commands, cfgs):
    assert run_driver(tmp_path, argv, monkeypatch) == commands
    assert configs(tmp_path) == cfgs
    # a rerun finds every artifact and issues nothing
    assert run_driver(tmp_path, argv, monkeypatch) == []
    assert configs(tmp_path) == cfgs
