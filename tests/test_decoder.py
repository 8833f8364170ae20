import itertools

import numpy as np
import pytest

from gradgen.attention import NeighborMask
from gradgen.config import RunConfig
from gradgen.decoder import (
    BlockParams,
    LatentStore,
    block_log_prob,
    block_params,
    build_scaffold,
    dataset_nll,
    graph_nll,
    init_decoder_params,
    sample_block,
    sample_graph,
    train_autodecoder,
)
from gradgen.graphdata import Graph, gen_cycles, lower_edges, order_nodes, to_lower
from gradgen.tensorcore import Tensor, grad, no_grad, stable_sigmoid, tsum

from conftest import assert_grads_match, numerical_grad


def tiny_config(**kw):
    base = dict(
        d=8, heads=2, d_s_decoder=4, d_s_flow=4, M=1, R=2, C=3, K=1,
        decoder_epochs=5, flow_epochs=5, batch=4, seed=0, decoder_noise=0.0, flow_noise=0.0,
    )
    base.update(kw)
    return RunConfig(**base).validate()


def make_params(cfg=None, seed=0):
    cfg = cfg or tiny_config()
    return cfg, init_decoder_params(cfg, np.random.default_rng(seed))


def ordered(g: Graph):
    return to_lower(g, order_nodes(g, "bfs"))


# -- scaffold ------------------------------------------------------------------


def test_scaffold_first_step_single_node():
    mask = build_scaffold(*lower_edges([]), 0, 1)
    assert mask.n == 1
    assert mask.matrix.sum() == 0


def test_scaffold_two_prev_one_edge():
    rows = [np.array([], dtype=np.int64), np.array([0])]
    mask = build_scaffold(*lower_edges(rows), 2, 1)
    assert set(mask.cols[mask.rows == 2]) == {0, 1}
    assert set(mask.cols[mask.rows == 0]) == {1, 2}
    assert set(mask.cols[mask.rows == 1]) == {0, 2}


def test_scaffold_block_of_two_no_prev_edges():
    rows = [np.array([], dtype=np.int64), np.array([], dtype=np.int64)]
    mask = build_scaffold(*lower_edges(rows), 2, 2)
    for new in (2, 3):
        assert set(mask.cols[mask.rows == new]) == {0, 1, 2, 3} - {new}
    # previous nodes gained only putative edges to the new block
    assert set(mask.cols[mask.rows == 0]) == {2, 3}


@pytest.mark.parametrize("n_prev,k", [(0, 1), (0, 3), (1, 1), (9, 1), (12, 4), (30, 2)])
def test_scaffold_matches_dense_oracle(n_prev, k):
    from oracles import dense_scaffold

    rng = np.random.default_rng(n_prev * 10 + k)
    rows = [np.flatnonzero(rng.random(i) < 0.3) for i in range(n_prev)]
    mask = build_scaffold(*lower_edges(rows), n_prev, k)
    ref = NeighborMask(dense_scaffold(rows, n_prev, k))
    for name in ("rows", "cols"):
        np.testing.assert_array_equal(getattr(mask, name), getattr(ref, name))


# -- block params ---------------------------------------------------------------


def test_first_block_uniform_mixture():
    cfg, params = make_params()
    bp = block_params(*lower_edges([]), None, np.zeros((1, cfg.d)), params)
    np.testing.assert_allclose(bp.pi(), np.full(cfg.C, 1.0 / cfg.C), atol=1e-12)
    assert bp.lam_logits.shape == (0, cfg.C)


def test_lambda_in_open_unit_interval():
    cfg, params = make_params(seed=1)
    rng = np.random.default_rng(2)
    rows = [np.array([], dtype=np.int64), np.array([0])]
    bp = block_params(*lower_edges(rows), Tensor(rng.standard_normal((2, cfg.d))), rng.standard_normal((1, cfg.d)), params)
    lam = stable_sigmoid(bp.lam_logits.data)
    assert np.all(lam > 0.0) and np.all(lam < 1.0)


def test_relabeling_previous_nodes_preserves_lambda_multiset():
    cfg, params = make_params(seed=3)
    rng = np.random.default_rng(4)
    # 4 previous nodes with some real edges, one new node
    rows = [np.array([], dtype=np.int64), np.array([0]), np.array([1]), np.array([0, 2])]
    carried = rng.standard_normal((4, cfg.d))
    new = rng.standard_normal((1, cfg.d))
    bp = block_params(*lower_edges(rows), Tensor(carried), new, params)

    perm = [2, 0, 3, 1]  # relabel previous nodes
    pos = {old: new_i for new_i, old in enumerate(perm)}
    edges = [(i, int(j)) for i, r in enumerate(rows) for j in r]
    new_rows = [[] for _ in range(4)]
    for i, j in edges:
        a, b = pos[i], pos[j]
        if a < b:
            a, b = b, a
        new_rows[a].append(b)
    rows_p = [np.array(sorted(r), dtype=np.int64) for r in new_rows]
    carried_p = carried[perm]
    bp_p = block_params(*lower_edges(rows_p), Tensor(carried_p), new, params)

    lam = np.sort(stable_sigmoid(bp.lam_logits.data), axis=0)
    lam_p = np.sort(stable_sigmoid(bp_p.lam_logits.data), axis=0)
    np.testing.assert_allclose(lam, lam_p, atol=1e-10)
    np.testing.assert_allclose(bp.pi(), bp_p.pi(), atol=1e-10)


# -- block log prob ---------------------------------------------------------------


def flat_block(pi_logits, lam_logits):
    p = len(lam_logits)
    return BlockParams(
        pi_logits=Tensor(np.asarray(pi_logits, dtype=float)),
        lam_logits=Tensor(np.asarray(lam_logits, dtype=float)),
        pair_i=np.arange(p, dtype=np.intp),
        pair_j=np.arange(p, dtype=np.intp),
        features=Tensor(np.zeros((1, 1))),
    )


def test_single_component_half_probability():
    bp = flat_block([0.0], np.zeros((3, 1)))
    lp = float(block_log_prob(np.array([1.0, 0.0, 1.0]), bp).data)
    assert lp == pytest.approx(3 * np.log(0.5), rel=1e-12)


def test_degenerate_mixture_reduces_to_single_component():
    rng = np.random.default_rng(5)
    lam = rng.standard_normal((4, 2))
    eps = (rng.random(4) < 0.5).astype(float)
    # component 1 carries all the mass
    bp = flat_block([50.0, -50.0], lam)
    lp = float(block_log_prob(eps, bp).data)
    lam1 = 1 / (1 + np.exp(-lam[:, 0]))
    expected = float(np.sum(eps * np.log(lam1) + (1 - eps) * np.log(1 - lam1)))
    assert lp == pytest.approx(expected, rel=1e-10)


def test_identical_components_equal_c1_likelihood():
    rng = np.random.default_rng(6)
    col = rng.standard_normal((5, 1))
    eps = (rng.random(5) < 0.5).astype(float)
    one = float(block_log_prob(eps, flat_block([0.3], col)).data)
    many = float(block_log_prob(eps, flat_block(rng.standard_normal(4), np.repeat(col, 4, axis=1))).data)
    assert many == pytest.approx(one, rel=1e-12)


def brute_force_total_mass(bp, n_pairs):
    total = 0.0
    for bits in itertools.product([0.0, 1.0], repeat=n_pairs):
        total += float(np.exp(block_log_prob(np.array(bits), bp).data))
    return total


def test_block_distribution_normalizes():
    rng = np.random.default_rng(7)
    for _ in range(25):
        p = int(rng.integers(1, 5))
        c = int(rng.integers(1, 6))
        bp = flat_block(rng.standard_normal(c) * 2, rng.standard_normal((p, c)) * 2)
        assert brute_force_total_mass(bp, p) == pytest.approx(1.0, abs=1e-10)


def test_block_normalizes_through_real_forward():
    cfg, params = make_params(seed=8)
    rng = np.random.default_rng(9)
    rows = [np.array([], dtype=np.int64), np.array([0]), np.array([1])]
    bp = block_params(*lower_edges(rows), Tensor(rng.standard_normal((3, cfg.d))), rng.standard_normal((1, cfg.d)), params)
    assert brute_force_total_mass(bp, 3) == pytest.approx(1.0, abs=1e-10)


def test_block_log_prob_shape_mismatch():
    bp = flat_block([0.0], np.zeros((3, 1)))
    with pytest.raises(ValueError):
        block_log_prob(np.zeros(2), bp)


@pytest.mark.parametrize("bad", [0.5, 2.0, -1.0, np.nan])
def test_block_log_prob_names_a_value_that_is_not_a_bit(bad):
    bp = flat_block([0.0, 1.0], np.ones((3, 2)))
    with pytest.raises(ValueError, match=f"observed block must hold 0/1 values, got {bad}"):
        block_log_prob(np.array([1.0, bad, 0.0]), bp)


def test_block_log_prob_reads_bits_of_any_dtype():
    bp = flat_block([0.0, 1.0], np.random.default_rng(8).standard_normal((3, 2)))
    values = {float(block_log_prob(eps, bp).data) for eps in ([1.0, 0.0, 1.0], [1, 0, 1], [True, False, True])}
    assert len(values) == 1


# -- graph likelihood ---------------------------------------------------------------


def test_single_node_graph_nll_is_zero():
    cfg, params = make_params(seed=10)
    nll = graph_nll(ordered(Graph(1, [])), np.zeros((1, cfg.d)), params)
    assert float(nll.data) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("k", [1, 3])
def test_graph_nll_equals_sum_of_block_log_probs(k):
    # reference for graph_nll's incremental edge arrays: every step rebuilds
    # its edges from the observed rows, and k does not divide n
    cfg, params = make_params(seed=11)
    ol = ordered(gen_cycles()[6])
    n = ol.n
    assert n % 3 != 0
    codes = np.random.default_rng(12).standard_normal((n, cfg.d))
    with no_grad():
        total = float(graph_nll(ol, codes, params, k=k).data)
        carried = None
        acc = 0.0
        for n_prev in range(0, n, k):
            kt = min(k, n - n_prev)
            bp = block_params(*lower_edges(ol.rows[:n_prev]), carried, codes[n_prev : n_prev + kt], params)
            eps = np.concatenate([np.isin(np.arange(i), ol.rows[i]) for i in range(n_prev, n_prev + kt)])
            acc += float(block_log_prob(eps, bp).data)
            carried = bp.features
    assert total == pytest.approx(-acc, rel=1e-12)


def test_graph_probabilities_sum_to_one_over_all_3_node_graphs():
    cfg, params = make_params(seed=13)
    codes = np.random.default_rng(14).standard_normal((3, cfg.d))
    total = 0.0
    with no_grad():
        for bits in itertools.product([0, 1], repeat=3):
            edges = [e for e, b in zip([(0, 1), (0, 2), (1, 2)], bits) if b]
            ol = to_lower(Graph(3, edges), [0, 1, 2])
            total += float(np.exp(-graph_nll(ol, codes, params).data))
    assert total == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("k", [2, 3])
def test_graph_probabilities_normalize_with_blocks(k):
    # all 64 labeled 4-node graphs; exercises multi-row blocks and a ragged
    # final block when k does not divide n
    cfg, params = make_params(seed=44)
    codes = np.random.default_rng(45).standard_normal((4, cfg.d))
    all_pairs = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    total = 0.0
    with no_grad():
        for bits in itertools.product([0, 1], repeat=6):
            edges = [e for e, b in zip(all_pairs, bits) if b]
            ol = to_lower(Graph(4, edges), [0, 1, 2, 3])
            total += float(np.exp(-graph_nll(ol, codes, params, k=k).data))
    assert total == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("k", [2, 5])
def test_sample_graph_with_blocks(k):
    cfg, params = make_params(seed=46)
    rng = np.random.default_rng(47)
    for n in (1, 4, 9):
        g = sample_graph(n, rng.standard_normal((n, cfg.d)), params, rng, k=k)
        assert g.n == n


def test_monte_carlo_mass_matches_graph_nll():
    # sampler frequency of one specific 3-node graph vs exp(-nll); the block
    # distribution for each row history is memoized purely for speed, since a
    # 3-node generation only ever visits a handful of histories
    cfg, params = make_params(seed=15)
    codes = np.random.default_rng(16).standard_normal((3, cfg.d))
    target = to_lower(Graph(3, [(0, 1), (1, 2)]), [0, 1, 2])
    with no_grad():
        p_target = float(np.exp(-graph_nll(target, codes, params).data))
        cache = {}

        def bp_for(history):
            if history not in cache:
                carried = cache[history[:-1]].features if history else None
                rows = [np.array(r, dtype=np.int64) for r in history]
                cache[history] = block_params(*lower_edges(rows), carried, codes[len(rows) : len(rows) + 1], params)
            return cache[history]

        rng = np.random.default_rng(17)
        draws = 100_000
        hits = 0
        target_rows = tuple(tuple(r) for r in target.rows)
        for _ in range(draws):
            history = ()
            for _step in range(3):
                bits = sample_block(bp_for(history), rng)
                history = history + (tuple(np.flatnonzero(bits)),)
            hits += history == target_rows
    p_hat = hits / draws
    sigma = np.sqrt(p_target * (1 - p_target) / draws)
    assert abs(p_hat - p_target) < 3 * sigma


def test_graph_nll_gradient_matches_finite_differences():
    cfg = tiny_config(d=6, heads=2, d_s_decoder=3, M=2, C=2)
    params = init_decoder_params(cfg, np.random.default_rng(18))
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
    ol = ordered(g)
    z0 = np.random.default_rng(19).standard_normal((5, cfg.d))

    z = Tensor(z0, requires_grad=True)
    loss = graph_nll(ol, z, params)
    param_list = params.as_dict()
    leaves = [z] + list(param_list.values())
    got = grad(loss, leaves)

    assert_grads_match(got[z], numerical_grad(lambda x: float(graph_nll(ol, x, params).data), z0.copy()))
    for name in ("ga0/wq1", "ga1/wp", "lam/w3", "pi/b3", "ga0/ln2_g"):
        t = param_list[name]
        base = t.data.copy()

        def f(x, t=t, base=base):
            t.data = x
            val = float(graph_nll(ol, z0, params).data)
            t.data = base
            return val

        assert_grads_match(got[t], numerical_grad(f, base.copy()))


# -- sampling ---------------------------------------------------------------


def test_sample_graph_invariants():
    cfg, params = make_params(seed=20)
    rng = np.random.default_rng(21)
    for n in (1, 2, 7, 13):
        codes = rng.standard_normal((n, cfg.d))
        g = sample_graph(n, codes, params, rng)
        assert g.n == n  # Graph constructor enforces simplicity


def test_sample_graph_single_node():
    cfg, params = make_params(seed=22)
    g = sample_graph(1, np.zeros((1, cfg.d)), params, np.random.default_rng(0))
    assert g == Graph(1, [])


def test_sample_graph_forced_lambda_one_gives_complete_graph():
    cfg, params = make_params(seed=23)
    params.f_lam.w3.data = np.zeros_like(params.f_lam.w3.data)
    params.f_lam.b3.data = np.full_like(params.f_lam.b3.data, 60.0)  # sigmoid -> 1
    g = sample_graph(6, np.random.default_rng(1).standard_normal((6, cfg.d)), params, np.random.default_rng(2))
    assert g.num_edges() == 15


def test_sample_graph_beyond_training_sizes_runs():
    cfg, params = make_params(seed=24)
    g = sample_graph(40, np.random.default_rng(3).standard_normal((40, cfg.d)), params, np.random.default_rng(4))
    assert g.n == 40


def test_block_sampling_marginal_matches_mixture():
    rng = np.random.default_rng(25)
    c, p = 3, 4
    bp = flat_block(rng.standard_normal(c), rng.standard_normal((p, c)))
    pi = bp.pi()
    lam = stable_sigmoid(bp.lam_logits.data)
    marginal = lam @ pi
    draws = 100_000
    acc = np.zeros(p)
    sampler = np.random.default_rng(26)
    for _ in range(draws):
        acc += sample_block(bp, sampler)
    freq = acc / draws
    sigma = np.sqrt(marginal * (1 - marginal) / draws)
    assert np.all(np.abs(freq - marginal) < 3 * sigma + 1e-9)


def test_sample_block_draws_same_bits_as_all_column_sigmoid():
    from oracles import sample_block_all_columns

    rng = np.random.default_rng(27)
    for trial in range(20):
        bp = flat_block(rng.standard_normal(20), 30.0 * rng.standard_normal((57, 20)))
        a = sample_block(bp, np.random.default_rng([28, trial]))
        b = sample_block_all_columns(bp, np.random.default_rng([28, trial]))
        assert a.tobytes() == b.tobytes()
    x = np.linspace(-800.0, 800.0, 1001)
    with np.errstate(over="ignore", invalid="ignore"):
        old = np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))
    assert stable_sigmoid(flat_block(np.zeros(1), x[:, None]).lam_logits.data).tobytes() == old[:, None].tobytes()


def test_sample_graph_matches_dense_oracle_path(monkeypatch):
    import gradgen.decoder as dec
    from oracles import dense_ga_forward

    cfg, params = make_params(seed=29)
    params.f_lam.b3.data = params.f_lam.b3.data - 5.0  # sparse draws: edge kernel past m ~ 40
    codes = np.random.default_rng(30).standard_normal((70, cfg.d))
    g = sample_graph(70, codes, params, np.random.default_rng(31))
    monkeypatch.setattr(dec, "ga_forward", lambda z, mask, p: dense_ga_forward(z, mask.matrix, p))
    ref = sample_graph(70, codes, params, np.random.default_rng(31))
    assert g == ref
    assert 0 < g.num_edges() < 3 * 70


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("n", [1, 9, 40])
def test_sample_graph_matches_row_list_oracle(n, k):
    from oracles import sample_graph_rows

    cfg, params = make_params(seed=48)
    params.f_lam.b3.data = params.f_lam.b3.data - 2.0  # neither empty nor complete
    codes = np.random.default_rng(49).standard_normal((n, cfg.d))
    rng, ref_rng = np.random.default_rng([50, n, k]), np.random.default_rng([50, n, k])
    g = sample_graph(n, codes, params, rng, k=k)
    ref = sample_graph_rows(n, codes, params, ref_rng, k=k)
    assert g == ref
    assert rng.random(4).tobytes() == ref_rng.random(4).tobytes()


# -- training ---------------------------------------------------------------


def tiny_cycles(n_graphs=10):
    gs = [g for g in gen_cycles() if g.n <= 5 + n_graphs - 1][:n_graphs]
    return [ordered(g) for g in gs]


def test_zero_learning_rates_change_nothing():
    cfg = tiny_config(tau=0.0, delta=0.0, decoder_epochs=2, batch=5)
    train = tiny_cycles(6)
    params = init_decoder_params(cfg, np.random.default_rng(30))
    before = {name: t.data.copy() for name, t in params.tensors()}
    params, store, curve = train_autodecoder(train, cfg, params=params)
    for name, t in params.tensors():
        np.testing.assert_array_equal(t.data, before[name])
    rng = np.random.default_rng([cfg.seed, 0x1A7E])
    expected_codes = [np.clip(rng.standard_normal((ol.n, cfg.d)), -1.0, 1.0) for ol in train]
    for z, e in zip(store.codes, expected_codes):
        np.testing.assert_array_equal(z, e)


def test_training_reduces_loss_on_tiny_cycles():
    cfg = tiny_config(d=12, heads=2, d_s_decoder=4, M=1, C=3, decoder_epochs=50, batch=10, tau=4e-3, delta=0.1)
    train = tiny_cycles(10)
    params, store, curve = train_autodecoder(train, cfg)
    store.check()
    first = curve[0][2]
    last = min(nll for _, _, nll in curve[-5:])
    assert last <= 0.5 * first, f"expected >=50% reduction, got {first:.3f} -> {last:.3f}"


def test_training_curve_is_deterministic():
    cfg = tiny_config(decoder_epochs=3, batch=4, tau=1e-3)
    train = tiny_cycles(6)
    _, s1, c1 = train_autodecoder(train, cfg)
    _, s2, c2 = train_autodecoder(train, cfg)
    assert c1 == c2
    for a, b in zip(s1.codes, s2.codes):
        np.testing.assert_array_equal(a, b)


def test_grad_r_mode_freezes_codes():
    cfg = tiny_config(mode="grad_r", decoder_epochs=2, batch=4, tau=1e-3)
    train = tiny_cycles(5)
    params, store, curve = train_autodecoder(train, cfg, stop_epoch=2)
    rng = np.random.default_rng([cfg.seed, 0x1A7E])
    expected = [np.clip(rng.standard_normal((ol.n, cfg.d)), -1.0, 1.0) for ol in train]
    for z, e in zip(store.codes, expected):
        np.testing.assert_array_equal(z, e)


def test_latent_store_stays_in_unit_ball():
    cfg = tiny_config(decoder_epochs=4, batch=5, tau=1e-3, delta=0.5)
    params, store, _ = train_autodecoder(tiny_cycles(8), cfg)
    store.check()
    assert max(np.abs(z).max() for z in store.codes) <= 1.0


def test_dataset_nll_matches_mean_graph_nll():
    cfg, params = make_params(seed=31)
    train = tiny_cycles(4)
    store = LatentStore([np.zeros((ol.n, cfg.d)) for ol in train])
    got = dataset_nll(train, store.codes, params)
    with no_grad():
        expected = np.mean([float(graph_nll(ol, z, params).data) for ol, z in zip(train, store.codes)])
    assert got == pytest.approx(expected, rel=1e-12)


# -- step recomputation ------------------------------------------------------


def test_checkpoint_crossover_picks_one_path_per_side(monkeypatch):
    import gradgen.decoder as dec
    from gradgen.tensorcore import engine as eng

    cfg, params = make_params(seed=32)
    monkeypatch.setattr(dec, "CHECKPOINT_MIN_M", 5)
    seen = []
    plain = dec._ga_stack
    monkeypatch.setattr(dec, "_ga_stack", lambda x, mask, gas: seen.append(mask.n) or plain(x, mask, gas))
    recorded = []
    ckpt = eng.checkpoint
    monkeypatch.setattr(eng, "checkpoint", lambda fn, xs, ps: recorded.append(xs[0].shape[0]) or ckpt(fn, xs, ps))
    ol = ordered(gen_cycles()[3])  # steps with m = 1..n
    n = ol.n
    z = Tensor(np.random.default_rng(33).standard_normal((n, cfg.d)), requires_grad=True)
    grad(graph_nll(ol, z, params), [z])
    # forward: steps below the constant run plainly, the rest inside two
    # checkpoints over the step's m rows, one for its GA stack and one for its
    # heads and log-likelihood; backward: each checkpointed step runs its
    # stack once more, last step first
    assert recorded == [m for m in range(5, n + 1) for _ in ("stack", "heads")]
    assert seen == list(range(1, n + 1)) + list(range(n, 4, -1))


def test_nan_in_a_recomputed_step_names_the_primitive(monkeypatch):
    import gradgen.decoder as dec

    monkeypatch.setattr(dec, "CHECKPOINT_MIN_M", 1)  # every step recomputed
    cfg = tiny_config(decoder_epochs=1, batch=3)
    params = init_decoder_params(cfg, np.random.default_rng(34))
    params.gas[0].ww1.data[0, 0] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(
        RuntimeError, match=r"training diverged at epoch 0, graph \d+: primitive 'linear'"
    ):
        train_autodecoder(tiny_cycles(3), cfg, params=params)


def test_nan_in_a_perceptron_names_its_layer():
    cfg = tiny_config(decoder_epochs=1, batch=3)
    params = init_decoder_params(cfg, np.random.default_rng(36))
    params.f_lam.w2.data[0, 0] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(
        RuntimeError,
        match=r"training diverged at epoch 0, graph \d+: primitive 'linear' \(layer 2 of 'mlp'\)",
    ):
        train_autodecoder(tiny_cycles(3), cfg, params=params)


def test_nan_in_a_recomputed_perceptron_names_its_layer(monkeypatch):
    """The same diagnosis with every step recomputed, so that ``f_lam`` runs
    inside the checkpoint of its step's log-likelihood."""
    import gradgen.decoder as dec

    monkeypatch.setattr(dec, "CHECKPOINT_MIN_M", 1)
    test_nan_in_a_perceptron_names_its_layer()


@pytest.mark.parametrize("frozen", [False, True], ids=["all leaves", "parameters frozen"])
def test_mlp3_is_bitwise_equal_to_the_unfused_chain(frozen, monkeypatch):
    from gradgen.tensorcore import engine as eng
    from oracles import mlp_chain

    _, params = make_params(seed=37)
    mlp3 = params.f_lam
    tensors = [t for _, t in mlp3.tensors()]
    rng = np.random.default_rng(38)
    for t in tensors:
        t.data = t.data + 0.3 * rng.standard_normal(t.shape)  # nonzero biases
        t.requires_grad = not frozen
    x0 = rng.standard_normal((7, mlp3.w1.shape[0]))
    w = Tensor(rng.standard_normal((7, mlp3.w3.shape[1])))
    leaves = [] if frozen else tensors
    results = []
    for perceptron in (eng.mlp, mlp_chain):
        monkeypatch.setattr(eng, "mlp", perceptron)
        x = Tensor(x0, requires_grad=True)
        out = mlp3(x)
        got = grad(tsum(out * w), [x] + leaves)
        results.append([out.data.tobytes()] + [got[t].tobytes() for t in [x] + leaves])
    assert results[0] == results[1]


def committed_lobster(n=100):
    """The lobster config, the first committed lobster training graph with
    ``n`` nodes (by default the largest) in its training order, and the
    decoder's initial parameters."""
    import os

    from gradgen.config import load_config
    from gradgen.graphdata import load_graphs

    results = os.path.join(os.path.dirname(__file__), os.pardir, "results", "acceptance")
    cfg = load_config(os.path.join(results, "lobster.cfg"))
    g = next(g for g in load_graphs(os.path.join(results, "lobster.ckpt.train.g")) if g.n == n)
    params = init_decoder_params(cfg, np.random.default_rng([cfg.seed, 0xDEC0]))
    return cfg, to_lower(g, order_nodes(g, cfg.ordering)), params


@pytest.mark.parametrize("frozen", [False, True], ids=["all leaves", "parameters frozen"])
def test_recomputation_is_bitwise_equal_at_every_threshold(frozen, monkeypatch):
    """Recomputing every step (1), the steps from m = 50 (the default) and no
    step (n+1) gives the same NLL and the same code and parameter gradients,
    bit for bit, with the parameters learned (pass 1 of a batch step) and
    frozen (pass 2)."""
    import gradgen.decoder as dec

    cfg, ol, params = committed_lobster()
    leaves = [t for _, t in params.tensors()]
    for t in leaves:
        t.requires_grad = not frozen
    z0 = np.random.default_rng(39).uniform(-1.0, 1.0, (ol.n, cfg.d))
    results = []
    for threshold in (1, dec.CHECKPOINT_MIN_M, ol.n + 1):
        monkeypatch.setattr(dec, "CHECKPOINT_MIN_M", threshold)
        z = Tensor(z0, requires_grad=True)
        loss = graph_nll(ol, z, params, k=cfg.K)
        wrt = [z] + ([] if frozen else leaves)
        got = grad(loss, wrt)
        results.append([loss.data.tobytes()] + [got[t].tobytes() for t in wrt])
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("n", [100, 45])
@pytest.mark.parametrize("frozen", [False, True], ids=["all leaves", "parameters frozen"])
def test_fused_nodes_are_bitwise_equal_to_the_oracle_chain(n, frozen, monkeypatch):
    """On a committed lobster with recomputed steps (n=100) and on one
    without (n=45), the one-node block mixture and two-summand layer norms
    give the NLL and every code and parameter gradient of the reference
    chain bit for bit, with the parameters learned (pass 1 of a batch step)
    and frozen (pass 2)."""
    from collections import Counter

    import gradgen.decoder as dec
    from gradgen.tensorcore.engine import _linearize
    from oracles import block_log_prob_chain, ga_forward_chain

    cfg, ol, params = committed_lobster(n)
    rng = np.random.default_rng(70)
    leaves = [t for _, t in params.tensors()]
    for t in leaves:
        t.data = t.data + 0.05 * rng.standard_normal(t.shape)  # nonzero biases, gains off 1
        t.requires_grad = not frozen
    z0 = rng.uniform(-1.0, 1.0, (ol.n, cfg.d))
    results = []
    for chain, node in ((False, "bernoulli_mixture_log_prob"), (True, "logsumexp")):
        if chain:
            monkeypatch.setattr(dec, "block_log_prob", block_log_prob_chain)
            monkeypatch.setattr(dec, "ga_forward", ga_forward_chain)
        z = Tensor(z0, requires_grad=True)
        loss = graph_nll(ol, z, params, k=cfg.K)
        assert Counter(t._opname for t in _linearize(loss))[node] > 0
        wrt = [z] + ([] if frozen else leaves)
        got = grad(loss, wrt)
        results.append([loss.data.tobytes()] + [got[t].tobytes() for t in wrt])
    assert results[0] == results[1]


def test_checkpointing_shrinks_the_retained_tape(monkeypatch):
    """Memory guard: on the largest committed lobster training graph (n=100)
    the tape that backward walks holds no GA layer, perceptron or mixture
    node of a recomputed step, only two checkpoint nodes per such step (its
    features and its log-likelihood), and it keeps under 0.29 of the bytes
    that it keeps with every step's activations retained. Measured: 1526 /
    2597 nodes and 53.9 / 204.4 MiB at CHECKPOINT_MIN_M = 50, a ratio of
    0.264, so the bound leaves a margin of 0.026 (a tenth of the ratio).
    Bytes are what tracemalloc sees still allocated once the loss is built,
    so the activations that a backward closure holds count too."""
    import gc
    import tracemalloc
    from collections import Counter

    import gradgen.decoder as dec
    from gradgen.tensorcore.engine import _linearize

    cfg, ol, params = committed_lobster()
    assert ol.n > dec.CHECKPOINT_MIN_M
    z0 = np.random.default_rng(35).uniform(-1.0, 1.0, (ol.n, cfg.d))
    counts = []
    min_m = dec.CHECKPOINT_MIN_M
    tracemalloc.start()
    try:
        for threshold in (min_m, ol.n + 1):
            monkeypatch.setattr(dec, "CHECKPOINT_MIN_M", threshold)
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            loss = graph_nll(ol, Tensor(z0, requires_grad=True), params, k=cfg.K)
            gc.collect()
            ops = Counter(node._opname for node in _linearize(loss))
            counts.append((ops, tracemalloc.get_traced_memory()[0] - before))
            del loss
    finally:
        tracemalloc.stop()
    (ops, nbytes), (full_ops, full_bytes) = counts
    assert cfg.K == 1  # one step per m = 1..n
    recomputed = ol.n - min_m + 1
    layers = len(params.gas)
    assert ops["checkpoint"] == 2 * recomputed
    assert ops["dense_attention"] + ops["edge_attention"] == layers * (ol.n - recomputed)
    assert full_ops["dense_attention"] + full_ops["edge_attention"] == layers * ol.n
    for name in ("mlp", "bernoulli_mixture_log_prob"):
        # every step records the same number of these, so only the plain steps' remain
        assert full_ops[name] > 0 and ops[name] > 0
        assert full_ops[name] % ol.n == 0
        assert ops[name] == full_ops[name] // ol.n * (ol.n - recomputed)
    assert nbytes < 0.29 * full_bytes
