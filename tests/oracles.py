"""Independent brute-force oracles shared by unit and acceptance tests."""

from itertools import combinations, permutations

import numpy as np

# canonical connected graphlets on 2..4 nodes, in standard order
_TEMPLATES = [
    (2, [(0, 1)]),  # edge
    (3, [(0, 1), (1, 2)]),  # path
    (3, [(0, 1), (1, 2), (0, 2)]),  # triangle
    (4, [(0, 1), (1, 2), (2, 3)]),  # path
    (4, [(0, 1), (0, 2), (0, 3)]),  # star
    (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),  # cycle
    (4, [(0, 1), (1, 2), (0, 2), (2, 3)]),  # paw
    (4, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3)]),  # diamond
    (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),  # clique
]


def _automorphism_classes(n, edges):
    eset = {frozenset(e) for e in edges}
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in permutations(range(n)):
        if {frozenset((perm[a], perm[b])) for a, b in edges} == eset:
            for i in range(n):
                a, b = find(i), find(perm[i])
                if a != b:
                    parent[a] = b
    classes = {}
    for i in range(n):
        classes.setdefault(find(i), []).append(i)
    return list(classes.values())


def _build_orbit_map():
    """position -> global orbit id per template; classes ordered by degree."""
    orbit_maps = []
    next_orbit = 0
    for n, edges in _TEMPLATES:
        deg = [0] * n
        for a, b in edges:
            deg[a] += 1
            deg[b] += 1
        classes = _automorphism_classes(n, edges)
        classes.sort(key=lambda cls: deg[cls[0]])
        pos_to_orbit = {}
        for cls in classes:
            for p in cls:
                pos_to_orbit[p] = next_orbit
            next_orbit += 1
        orbit_maps.append((n, edges, pos_to_orbit))
    assert next_orbit == 15
    return orbit_maps


_ORBIT_MAPS = _build_orbit_map()


def _connected(nodes, eset):
    nodes = list(nodes)
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        v = stack.pop()
        for w in nodes:
            if w not in seen and frozenset((v, w)) in eset:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(nodes)


def brute_force_orbit_counts(g) -> np.ndarray:
    """Orbit counts per node by exhaustive subset enumeration and
    permutation-based isomorphism matching. Only sensible for small graphs."""
    eset = {frozenset(e) for e in g.edges}
    counts = np.zeros((g.n, 15))
    for k in (2, 3, 4):
        for subset in combinations(range(g.n), k):
            induced = {e for e in eset if set(e) <= set(subset)}
            if not _connected(subset, eset):
                continue
            for n, tedges, pos_to_orbit in _ORBIT_MAPS:
                if n != k or len(tedges) != len(induced):
                    continue
                matched = None
                for perm in permutations(range(k)):
                    mapping = {subset[i]: perm[i] for i in range(k)}
                    if {frozenset((mapping[a], mapping[b])) for a, b in (tuple(e) for e in induced)} == {
                        frozenset(e) for e in tedges
                    }:
                        matched = mapping
                        break
                if matched is not None:
                    for node, pos in matched.items():
                        counts[node, pos_to_orbit[pos]] += 1
                    break
    return counts


# -- the unfused reference chain ------------------------------------------------
# Engine nodes that the library no longer has: the fused ``engine.mlp``,
# ``engine.dense_attention``, ``engine.edge_attention``, ``engine.layer_norm``
# and ``engine.bernoulli_mixture_log_prob`` are held to chains of these. Each
# records its own node through the engine's ``_make``.


def relu(a):
    """ReLU as its own engine node, with the mask taken from its input."""
    from gradgen.tensorcore import engine as eng

    def bwd(g):
        return (g * (a.data > 0.0),)

    return eng._make("relu", np.maximum(a.data, 0.0), (a,), bwd)


def linear(x, w, b=None):
    """Fused x @ w + b; ``b`` broadcasts over the row axes."""
    from gradgen.tensorcore import engine as eng

    data = x.data @ w.data
    if b is not None:
        data += b.data

    def bwd(g):
        gx = eng._unbroadcast(g @ np.swapaxes(w.data, -1, -2), x.data.shape) if x.requires_grad else None
        gw = eng._unbroadcast(np.swapaxes(x.data, -1, -2) @ g, w.data.shape) if w.requires_grad else None
        if b is None:
            return gx, gw
        return gx, gw, eng._unbroadcast(g, b.data.shape) if b.requires_grad else None

    return eng._make("linear", data, (x, w) if b is None else (x, w, b), bwd)


def attention_scores(q, k, scale):
    """Fused scale * q @ k^T over the last two axes."""
    from gradgen.tensorcore import engine as eng

    data = q.data @ np.swapaxes(k.data, -1, -2)
    data *= scale

    def bwd(g):
        gq = scale * (g @ k.data) if q.requires_grad else None
        gk = scale * (np.swapaxes(g, -1, -2) @ q.data) if k.requires_grad else None
        return gq, gk

    return eng._make("attention_scores", data, (q, k), bwd)


def masked_softmax(logits, mask):
    """Softmax over the last axis restricted to the boolean ``mask``; empty
    rows yield zeros. Two exponent branches, as in ``engine.dense_attention``:
    masked-out entries are exponentiated as zeros and then zeroed, except when
    only the diagonal of a square mask is masked out."""
    from gradgen.tensorcore import engine as eng

    x = logits.data
    e = np.where(mask, x, -np.inf)
    m = e.max(axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    n = len(mask) if mask.ndim == 2 else -1
    if mask.shape == (n, n) and np.count_nonzero(mask) == n * n - n and not mask.diagonal().any():
        e -= m
        np.exp(e, out=e)
    else:
        np.subtract(x, m, out=e)
        np.copyto(e, 0.0, where=~mask)
        np.exp(e, out=e)
        e *= mask
    s = e.sum(axis=-1, keepdims=True)
    out = e / np.where(s > 0.0, s, 1.0)

    def bwd(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return eng._make("masked_softmax", out, (logits,), bwd)


def logsigmoid(a):
    """log(sigmoid(x)), stable for large |x|."""
    from gradgen.tensorcore import engine as eng

    data = -np.logaddexp(0.0, -a.data)

    def bwd(g):
        # d/dx log(sigmoid(x)) = 1 - sigmoid(x) = 1 - exp(logsigmoid(x))
        return (g * (1.0 - np.exp(data)),)

    return eng._make("logsigmoid", data, (a,), bwd)


def logsumexp(a, axis=None):
    from gradgen.tensorcore import engine as eng

    x = a.data
    m = x.max(axis=axis, keepdims=True) if x.size else np.zeros((1,) * x.ndim)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(x - m)
    s = e.sum(axis=axis, keepdims=True)
    out = np.log(s) + m
    soft = e / s
    out = out.squeeze() if axis is None else out.squeeze(axis=axis)

    def bwd(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (g * soft,)

    return eng._make("logsumexp", out, (a,), bwd)


def layer_norm(x, gain, bias):
    """Layer norm of one input, whose residual sum is its own ``add`` node."""
    from gradgen.tensorcore import engine as eng

    d = x.data.shape[-1]
    mu = x.data.sum(axis=-1, keepdims=True) / d
    xc = x.data - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + 1e-5)
    y = xc * inv
    data = y * gain.data + bias.data

    def bwd(g):
        ggain = eng._unbroadcast(g * y, gain.data.shape) if gain.requires_grad else None
        gbias = eng._unbroadcast(g, bias.data.shape) if bias.requires_grad else None
        if not x.requires_grad:
            return None, ggain, gbias
        gh = g * gain.data
        ghy = (gh * y).sum(axis=-1, keepdims=True) / d
        gx = inv * (gh - gh.sum(axis=-1, keepdims=True) / d - y * ghy)
        return gx, ggain, gbias

    return eng._make("layer_norm", data, (x, gain, bias), bwd)


def mixture_log_prob_chain(pi_logits, lam_logits, observed):
    """The block mixture's log-likelihood as an 11-node chain over the 0/1
    ``observed`` vector: the reference for
    ``engine.bernoulli_mixture_log_prob``."""
    from gradgen.tensorcore import engine as eng

    log_pi = pi_logits - logsumexp(pi_logits)
    eps_col = eng.Tensor(np.asarray(observed, dtype=np.float64)[:, None])
    per_pair = eps_col * logsigmoid(lam_logits) + (eng.Tensor(1.0) - eps_col) * logsigmoid(-lam_logits)
    return logsumexp(log_pi + eng.tsum(per_pair, axis=0))


def block_log_prob_chain(observed, bp):
    """``decoder.block_log_prob`` through the reference chain."""
    return mixture_log_prob_chain(bp.pi_logits, bp.lam_logits, observed)


def ga_forward_chain(z, mask, params):
    """``attention.ga_forward`` with each residual sum an ``add`` node ahead
    of a one-input layer norm: the reference for ``engine.layer_norm``."""
    from gradgen.attention import DENSE_FILL
    from gradgen.tensorcore import engine as eng

    q = eng.mlp(z, [(params.wq1, params.bq1), (params.wq2, params.bq2)])
    k = eng.mlp(z, [(params.wk1, params.bk1), (params.wk2, params.bk2)])
    v = eng.mlp(z, [(params.wv1, params.bv1), (params.wv2, params.bv2)])
    scale = params.d_s**-0.5
    if mask.fill > DENSE_FILL:
        mixed = eng.dense_attention(q, k, v, mask.matrix, scale)
    else:
        mixed = eng.edge_attention(q, k, v, mask.rows, mask.cols, scale)
    normed = layer_norm(z + eng.matmul(mixed, params.wp), params.ln1_g, params.ln1_b)
    ff = eng.mlp(normed, [(params.ww1, params.bw1), (params.ww2, params.bw2)])
    return layer_norm(normed + ff, params.ln2_g, params.ln2_b)


def transpose(a, axes):
    from gradgen.tensorcore import engine as eng

    inv = tuple(np.argsort(axes))
    return eng._make("transpose", np.transpose(a.data, axes), (a,), lambda g: (np.transpose(g, inv),))


def reshape(a, shape):
    from gradgen.tensorcore import engine as eng

    old = a.data.shape
    return eng._make("reshape", a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def mlp_chain(x, layers):
    """relu(x @ w1 + b1) ... @ wL + bL as one ``linear`` node per layer and
    one ``relu`` node per hidden activation: the reference for ``engine.mlp``."""
    h = linear(x, *layers[0])
    for w, b in layers[1:]:
        h = linear(relu(h), w, b)
    return h


def dense_attention_chain(q, k, v, matrix, scale):
    """Scores, masked softmax, mixing and head concatenation as five nodes:
    the reference for ``engine.dense_attention``."""
    from gradgen.tensorcore import engine as eng

    heads, m, d = v.shape
    mixed = eng.matmul(masked_softmax(attention_scores(q, k, scale), matrix), v)
    return reshape(transpose(mixed, (1, 0, 2)), (m, heads * d))


def dense_ga_forward(z, matrix, params):
    """One GA layer with dense (H, m, m) masked attention over the boolean
    neighborhood ``matrix``, unfused perceptrons and unfused residual layer
    norms: the reference for the edge-list kernel, ``engine.dense_attention``,
    ``engine.mlp`` and ``engine.layer_norm``."""
    q = mlp_chain(z, [(params.wq1, params.bq1), (params.wq2, params.bq2)])
    k = mlp_chain(z, [(params.wk1, params.bk1), (params.wk2, params.bk2)])
    v = mlp_chain(z, [(params.wv1, params.bv1), (params.wv2, params.bv2)])
    delta = linear(dense_attention_chain(q, k, v, matrix, params.d_s**-0.5), params.wp)
    normed = layer_norm(z + delta, params.ln1_g, params.ln1_b)
    ff = mlp_chain(normed, [(params.ww1, params.bw1), (params.ww2, params.bw2)])
    return layer_norm(normed + ff, params.ln2_g, params.ln2_b)


def mask_from_matrix(matrix):
    """``NeighborMask`` over a boolean matrix, which this asserts is square
    and symmetric with an empty diagonal: the constructor takes the edge list
    of ``np.nonzero`` unchecked."""
    from gradgen.attention import NeighborMask

    matrix = np.asarray(matrix, dtype=bool)
    assert matrix.ndim == 2 and matrix.shape[0] == matrix.shape[1], matrix.shape
    assert not matrix.diagonal().any() and np.array_equal(matrix, matrix.T)
    return NeighborMask(len(matrix), *np.nonzero(matrix))


def mask_from_edges(n, edges):
    """``mask_from_matrix`` over undirected edges (u, v), in any order and
    possibly repeated."""
    matrix = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        matrix[u, v] = matrix[v, u] = True
    return mask_from_matrix(matrix)


def dense_scaffold(rows, n_prev, k):
    """Decoder scaffold as an m x m boolean matrix, built row by row."""
    m = n_prev + k
    mat = np.zeros((m, m), dtype=bool)
    for i in range(n_prev):
        mat[i, rows[i]] = True
        mat[rows[i], i] = True
    mat[n_prev:, :] = True
    mat[:, n_prev:] = True
    np.fill_diagonal(mat, False)
    return mat


def sample_block_all_columns(bp, rng):
    """Block draw that takes the sigmoid of every mixture column, with the
    two-branch formula evaluated everywhere."""
    pi = bp.pi()
    comp = int(rng.choice(len(pi), p=pi))
    if len(bp.pair_i) == 0:
        return np.empty(0, dtype=bool)
    x = bp.lam_logits.data
    with np.errstate(over="ignore", invalid="ignore"):
        lam = np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))
    return rng.random(len(lam)) < lam[:, comp]


def sample_graph_rows(n, codes, params, rng, k=1):
    """Block-by-block sampling that keeps the generated rows as a list and
    extracts every edge from them again at each step: the reference for the
    decoder's incremental edge arrays."""
    from gradgen.decoder import block_params, sample_block
    from gradgen.graphdata import OrderedLower, lower_edges
    from gradgen.tensorcore import no_grad

    rows = []
    carried = None
    with no_grad():
        while len(rows) < n:
            n_prev = len(rows)
            kt = min(k, n - n_prev)
            bp = block_params(*lower_edges(rows), carried, codes[n_prev : n_prev + kt], params)
            hits = sample_block(bp, rng)
            offset = 0
            for i in range(n_prev, n_prev + kt):
                rows.append(np.flatnonzero(hits[offset : offset + i]).astype(np.int64))
                offset += i
            carried = bp.features
    return reconstruct(OrderedLower(rows=rows))


def reconstruct(ol):
    """The graph that an OrderedLower's rows encode, one edge at a time: the
    reference for ``to_lower``'s round trip."""
    from gradgen.graphdata import Graph

    edges = []
    for i, row in enumerate(ol.rows):
        for j in row:
            if j >= i:
                raise ValueError(f"row {i} references non-earlier node {j}")
            edges.append((int(j), i))
    return Graph(ol.n, edges)
