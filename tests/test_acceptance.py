"""Acceptance suite.

Criteria 1-4 are self-contained and always run. Criteria 5-10 verify the
training artifacts produced by ``python3 scripts/run_acceptance.py`` (many
hours of single-core compute): the tests recompute every score from the raw
graph containers rather than trusting stored reports, and fail with a
pointer to the driver when an artifact is missing.
"""

import itertools
import json
import os
import time

import numpy as np
import pytest

from gradgen.attention import NeighborMask, ga_forward, init_ga_params
from gradgen.config import RunConfig
from gradgen.decoder import block_log_prob, block_params, graph_nll, init_decoder_params
from gradgen.evalstats import degree_stat, graph_stat, lobster_validity, mmd2, orbit_counts
from gradgen.flow import flow_forward, flow_inverse, flow_nll, init_flow_params, train_flow
from gradgen.decoder import LatentStore
from gradgen.graphdata import Graph, load_graphs, lower_edges, order_nodes, to_lower
from gradgen.tensorcore import Tensor, grad, tsum

from conftest import assert_grads_match, numerical_grad
from oracles import brute_force_orbit_counts, mask_from_matrix

RESULTS = os.path.join(os.path.dirname(__file__), os.pardir, "results", "acceptance")


def artifact(name: str) -> str:
    path = os.path.abspath(os.path.join(RESULTS, name))
    if not os.path.exists(path):
        pytest.fail(
            f"missing acceptance artifact {path}; run `python3 scripts/run_acceptance.py` "
            "(multi-hour training) before the acceptance suite"
        )
    return path


def random_graph(n, p, rng):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(n, edges)


def random_mask(n, p, rng):
    m = np.triu(rng.random((n, n)) < p, 1)
    return mask_from_matrix(m | m.T)


def report(criterion: int, message: str) -> None:
    print(f"[criterion {criterion:2d}] PASS: {message}")


# -- criterion 1: gradient correctness under 60 seconds ---------------------


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(101)

    # GA layer: scalar readout over randomized 3..5 node instances
    for trial in range(3):
        n = int(rng.integers(3, 6))
        params = init_ga_params(np.random.default_rng(200 + trial), 6, 4, 2)
        mask = random_mask(n, 0.6, rng)
        w = rng.standard_normal((n, 6))
        z0 = rng.standard_normal((n, 6))
        z = Tensor(z0, requires_grad=True)
        loss = tsum(ga_forward(z, mask, params) * Tensor(w))
        leaves = [z] + [t for _, t in params.tensors()]
        got = grad(loss, leaves)
        assert_grads_match(
            got[z],
            numerical_grad(lambda x: float(tsum(ga_forward(Tensor(x), mask, params) * Tensor(w)).data), z0.copy()),
        )
        t = params.wv1
        base = t.data.copy()

        def f(x, t=t, base=base):
            t.data = x
            val = float(tsum(ga_forward(Tensor(z0), mask, params) * Tensor(w)).data)
            t.data = base
            return val

        assert_grads_match(got[t], numerical_grad(f, base.copy()))

    # mixture likelihood: graph NLL wrt codes and parameters on 5-node graphs
    cfg = RunConfig(d=6, heads=2, d_s_decoder=3, d_s_flow=4, M=2, C=2, seed=0).validate()
    dec = init_decoder_params(cfg, np.random.default_rng(300))
    g = random_graph(5, 0.5, np.random.default_rng(301))
    ol = to_lower(g, order_nodes(g, "bfs"))
    z0 = np.random.default_rng(302).standard_normal((5, cfg.d))
    z = Tensor(z0, requires_grad=True)
    plist = dec.as_dict()
    got = grad(graph_nll(ol, z, dec), [z] + list(plist.values()))
    assert_grads_match(got[z], numerical_grad(lambda x: float(graph_nll(ol, x, dec).data), z0.copy()))
    for name in ("lam/w1", "pi/w3", "ga1/wk2"):
        t = plist[name]
        base = t.data.copy()

        def f(x, t=t, base=base):
            t.data = x
            val = float(graph_nll(ol, z0, dec).data)
            t.data = base
            return val

        assert_grads_match(got[t], numerical_grad(f, base.copy()))

    # flow NLL wrt codes and parameters
    fcfg = RunConfig(d=4, heads=2, d_s_flow=3, d_s_decoder=4, M=1, R=2, C=2, seed=0).validate()
    flow = init_flow_params(fcfg, np.random.default_rng(400))
    for layer in flow.layers:
        for gq in (layer.g_s, layer.g_t):
            gq.ln2_g.data = np.random.default_rng(401).standard_normal(gq.ln2_g.data.shape) * 0.3
    mask = random_mask(3, 0.8, np.random.default_rng(402))
    z0 = np.random.default_rng(403).standard_normal((3, 4))
    z = Tensor(z0, requires_grad=True)
    fl = dict(flow.tensors())
    got = grad(flow_nll(z, mask, flow), [z] + list(fl.values()))
    assert_grads_match(got[z], numerical_grad(lambda x: float(flow_nll(x, mask, flow).data), z0.copy()))
    for name in ("step0/n1/log_s", "step1/n2/w", "step0/g1/wq1"):
        t = fl[name]
        base = t.data.copy()

        def f(x, t=t, base=base):
            t.data = x
            val = float(flow_nll(z0, mask, flow).data)
            t.data = base
            return val

        assert_grads_match(got[t], numerical_grad(f, base.copy()))

    elapsed = time.time() - t0
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    report(1, f"GA / mixture / flow gradients match finite differences (rel 1e-4) in {elapsed:.1f}s")


# -- criterion 2: likelihood normalization -----------------------------------


def test_criterion_2_block_normalization():
    rng = np.random.default_rng(500)
    for draw in range(100):
        cfg = RunConfig(d=6, heads=2, d_s_decoder=3, d_s_flow=4, M=1, C=int(rng.integers(1, 5)), seed=0).validate()
        dec = init_decoder_params(cfg, np.random.default_rng(int(rng.integers(1 << 30))))
        n_prev = int(rng.integers(1, 5))  # up to 4 putative pairs
        rows = []
        for i in range(n_prev):
            rows.append(np.flatnonzero(rng.random(i) < 0.4).astype(np.int64))
        bp = block_params(*lower_edges(rows), Tensor(rng.standard_normal((n_prev, cfg.d))), rng.standard_normal((1, cfg.d)), dec)
        total = 0.0
        for bits in itertools.product([0.0, 1.0], repeat=n_prev):
            total += float(np.exp(block_log_prob(np.array(bits), bp).data))
        assert total == pytest.approx(1.0, abs=1e-8), f"draw {draw}"
    report(2, "exp(block_log_prob) sums to 1 +/- 1e-8 over all configurations, 100 parameter draws")


# -- criterion 3: flow exactness ----------------------------------------------


def _numerical_jacobian_logdet(flow, mask, z):
    n, d = z.shape
    jac = np.zeros((n * d, n * d))
    h = 1e-6
    for idx in range(n * d):
        zp = z.reshape(-1).copy()
        zm = z.reshape(-1).copy()
        zp[idx] += h
        zm[idx] -= h
        yp = flow_forward(zp.reshape(n, d), mask, flow).y.data.reshape(-1)
        ym = flow_forward(zm.reshape(n, d), mask, flow).y.data.reshape(-1)
        jac[:, idx] = (yp - ym) / (2 * h)
    sign, ld = np.linalg.slogdet(jac)
    assert sign != 0
    return ld


def test_criterion_3_flow_exactness():
    cfg = RunConfig(d=4, heads=2, d_s_flow=3, d_s_decoder=4, M=1, R=2, C=2,
                    flow_epochs=100, batch=4, flow_noise=0.0, flow_lr=2e-3, seed=0).validate()
    flow = init_flow_params(cfg, np.random.default_rng(600))
    rng = np.random.default_rng(601)
    for layer in flow.layers:
        for gq in (layer.g_s, layer.g_t):
            gq.ln2_g.data = rng.standard_normal(gq.ln2_g.data.shape) * 0.4

    def check(flow, tag):
        mask10 = NeighborMask.complete(10)
        z = rng.standard_normal((10, 4))
        y = flow_forward(z, mask10, flow).y.data
        back = flow_inverse(y, mask10, flow)
        assert np.abs(back - z).max() < 1e-6, tag
        mask3 = random_mask(3, 0.9, rng)
        z3 = rng.standard_normal((3, 4))
        analytic = float(flow_forward(z3, mask3, flow).logdet.data)
        numeric = _numerical_jacobian_logdet(flow, mask3, z3)
        assert analytic == pytest.approx(numeric, rel=1e-3), tag

    check(flow, "fresh parameters")

    # 100 training steps on synthetic codes, then the same checks must hold
    chains = [to_lower(Graph(5, [(i, i + 1) for i in range(4)]), [0, 1, 2, 3, 4]) for _ in range(4)]
    store = LatentStore([np.clip(rng.standard_normal((5, 4)) * 0.6, -1, 1) for _ in range(4)])
    flow, _ = train_flow(store, chains, cfg, params=flow, epochs=100)
    check(flow, "after 100 training steps")
    report(3, "round trip < 1e-6 and logdet matches the numerical Jacobian (rel 1e-3), before and after training")


# -- criterion 4: MMD properties and orbit brute force -------------------------


def test_criterion_4_mmd_and_orbits():
    rng = np.random.default_rng(700)
    sets = []
    for lo in (4, 9):
        sets.append([degree_stat(random_graph(int(rng.integers(lo, lo + 6)), 0.4, rng)) for _ in range(12)])
    a, b = sets
    assert mmd2(a, list(a)) == pytest.approx(0.0, abs=1e-12)
    assert mmd2(a, b) == pytest.approx(mmd2(b, a), rel=1e-12)
    assert mmd2(a, b) >= 0.0
    for kind in ("degree", "clustering", "orbit", "spectra"):
        sa = [graph_stat(random_graph(8, 0.35, rng), kind) for _ in range(6)]
        assert mmd2(sa, list(sa)) == pytest.approx(0.0, abs=1e-12)

    for trial in range(12):
        n = int(rng.integers(2, 13))
        g = random_graph(n, float(rng.uniform(0.15, 0.8)), rng)
        np.testing.assert_array_equal(orbit_counts(g), brute_force_orbit_counts(g))
    report(4, "MMD zero/symmetric/nonnegative; orbit counts equal exhaustive enumeration for N <= 12")


# -- criteria 5-10: verified from training artifacts ---------------------------


def _mmd_from_files(samples_path, test_path, kind):
    samples = load_graphs(samples_path)
    reference = load_graphs(test_path)
    return mmd2([graph_stat(g, kind) for g in samples], [graph_stat(g, kind) for g in reference])


def _summary_value(log_path, key):
    value = None
    with open(log_path, encoding="utf-8") as f:
        for line in f:
            if line.startswith(f"summary,{key},"):
                value = float(line.strip().split(",")[2])
    assert value is not None, f"{log_path} lacks summary key {key}"
    return value


def test_criterion_5_cycles_reproduction():
    samples = artifact("cycles_samples.g")
    test = artifact("cycles.ckpt.test.g")
    degree = _mmd_from_files(samples, test, "degree")
    spectra = _mmd_from_files(samples, test, "spectra")
    assert degree <= 0.02, f"cycles degree MMD {degree:.4f} > 0.02"
    assert spectra <= 0.07, f"cycles spectra MMD {spectra:.4f} > 0.07"
    report(5, f"cycles: degree MMD {degree:.4f} <= 0.02, spectra MMD {spectra:.4f} <= 0.07")


def test_criterion_6_lobster_reproduction():
    samples = artifact("lobster_samples.g")
    test = artifact("lobster.ckpt.test.g")
    bounds = {"degree": 0.01, "orbit": 0.005, "spectra": 0.07, "clustering": 0.01}
    scores = {kind: _mmd_from_files(samples, test, kind) for kind in bounds}
    for kind, bound in bounds.items():
        assert scores[kind] <= bound, f"lobster {kind} MMD {scores[kind]:.5f} > {bound}"
    validity = float(np.mean([lobster_validity(g) for g in load_graphs(samples)]))
    assert validity >= 0.50, f"lobster validity {validity:.2f} < 0.50"
    report(6, "lobster: " + ", ".join(f"{k} {scores[k]:.5f}" for k in bounds) + f", validity {validity:.2f}")


def test_criterion_6_smoke_profile():
    samples = artifact("smoke_samples.g")
    test = artifact("smoke.ckpt.test.g")
    degree = _mmd_from_files(samples, test, "degree")
    assert degree <= 0.05, f"150-epoch smoke profile degree MMD {degree:.4f} > 0.05"
    report(6, f"150-epoch smoke profile: degree MMD {degree:.4f} <= 0.05")


def test_criterion_7_latent_optimization_benefit():
    d_nll = _summary_value(artifact("lobster.ckpt.log"), "decoder_final_train_nll")
    r_nll = _summary_value(artifact("lobster_r.ckpt.log"), "decoder_final_train_nll")
    assert d_nll * 5.0 <= r_nll, f"GrAD-D NLL {d_nll:.3f} not 5x below GrAD-R NLL {r_nll:.3f}"
    report(7, f"train NLL: jointly optimized {d_nll:.3f} vs frozen random codes {r_nll:.3f} ({r_nll / d_nll:.1f}x)")


def test_criterion_8_block_size_ablation():
    d2 = _mmd_from_files(artifact("lobster_k2_samples.g"), artifact("lobster_k2.ckpt.test.g"), "degree")
    d8 = _mmd_from_files(artifact("lobster_k8_samples.g"), artifact("lobster_k8.ckpt.test.g"), "degree")
    assert d2 < d8, f"degree MMD did not increase: K=2 {d2:.4f} vs K=8 {d8:.4f}"
    report(8, f"degree MMD rises with block size: K=2 {d2:.4f} < K=8 {d8:.4f}")


def test_criterion_9_out_of_distribution():
    samples_path = artifact("ood_samples.g")
    samples = load_graphs(samples_path)  # container loader enforces simplicity
    assert all(g.n == 200 for g in samples)
    degree = _mmd_from_files(samples_path, artifact("ood_lobster_ref.g"), "degree")
    assert degree <= 0.05, f"OOD degree MMD {degree:.4f} > 0.05"
    report(9, f"N=200 lobsters: degree MMD {degree:.4f} <= 0.05; all samples simple undirected")


def test_criterion_10_relative_sampling_cost():
    with open(artifact("timing_full.g.timing"), encoding="utf-8") as f:
        full = json.load(f)
    with open(artifact("timing_decoder_only.g.timing"), encoding="utf-8") as f:
        dec = json.load(f)
    assert full["mode"] == "grad" and dec["mode"] == "grad_d"
    assert full["n_graphs"] == dec["n_graphs"] == 100
    ratio = full["mean_seconds_per_graph"] / dec["mean_seconds_per_graph"]
    assert ratio <= 2.5, f"full/decoder-only sampling time ratio {ratio:.2f} > 2.5"
    report(10, f"per-graph sampling time ratio {ratio:.2f} <= 2.5 over 100 graphs")
