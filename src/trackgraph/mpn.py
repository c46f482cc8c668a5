"""Time-aware message passing over a track graph, with analytic gradients.

Edges carry a 6-feature descriptor (height-normalised offsets, log size
ratios, frame gap, appearance distance). graph_tensors computes it for
every edge of a graph, one fixed-size block of edges at a time, while
it packs the graph for the network from the graph's u/v endpoint
arrays; handcrafted_scores reads the descriptors in the same blocks.
Node states start as an affine projection of the appearance embedding;
edge states start as an encoded feature vector. Each step updates every
edge from its endpoints; between two steps, every node is updated from
directional message sums: messages from earlier neighbours pass through
the past MLP, those from later neighbours through the future MLP, and
the node MLP fuses the two sums. Edge states keep their initial encoding
concatenated alongside, so step 0 information survives every update. A
logistic classifier on the final edge state, the only state it reads,
yields link scores in (0, 1).

All forward passes are mirrored by hand-written reverse-mode backward
passes; gradients are exact, not approximated.

Message passing works at node width, in blocks of edges. A pair MLP's
first layer reads [h[a], e, e0, h[c]] (two endpoint states, the current
and the initial edge encoding) through one weight matrix; it is computed
as (h @ W_a)[a] + (h @ W_c)[c] + e @ W_e + (e0 @ W_0 + b), and the last
term is made once per pass. The edge encoder and the pair MLPs run
MLP_BLOCK edges at a time: a block gathers its rows of h @ W_a and
h @ W_c, runs every layer in block-sized buffers reused from block to
block, and writes its rows of the output, with the same arithmetic per
row as one pass over all edges, so the bits do not depend on the block.
What grows with the edge count is the initial encoding, the edge
states, one message array, the e0 terms of the pair MLPs that run and
the scores, plus the classifier's hidden layer once the e0 terms are
freed; only training keeps hidden activations. Backward sums the first
layer's gradient to the nodes before it meets W_a and W_c, so the
(edges x 2 node_dim + 2 edge_dim) input is never built. Sums over a
node's edges are products with two sparse incidence matrices, built once
per pass; they add in edge order, bit-identical to np.add.at. A
rectifier's backward mask is read from its activation, so per step the
cache keeps the edge state read and each pair MLP's hidden activations.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np
from scipy import sparse

from trackgraph.core import NumericError, ParseError, TrackGraph, ValidationError

_CKPT_MAGIC = b"TGCKPT01"
_SCORE_CLAMP = 1e-7
# edges per block of graph_tensors and handcrafted_scores: small enough
# that a block's temporaries stay in cache (4,096 measured fastest of
# 1,024 to 16,384 on a weak-appearance trajectory graph)
EDGE_BLOCK = 4096
# edges per block of the edge MLPs in message passing, whose blocks carry
# several (rows x hidden) buffers: on the long-mpn graphs 1,024 measured
# fastest of 512 to 8,192, and 4,096 cost 18 % more per forward
MLP_BLOCK = 1024


# ------------------------------------------------------------------- MLPs


@dataclass
class MlpParams:
    """Fully connected stack; rectifier between layers, optional logistic out."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    output: str = "linear"

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValidationError("weights and biases must align and be non-empty")
        if self.output not in ("linear", "logistic"):
            raise ValidationError(f"unknown output activation {self.output!r}")
        for w, b in zip(self.weights, self.biases):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ValidationError("layer shapes disagree")

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[1]


def mlp_init(rng: np.random.Generator, dims: Sequence[int], output: str = "linear") -> MlpParams:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out)) per layer."""
    weights, biases = [], []
    for d_in, d_out in zip(dims, dims[1:]):
        bound = np.sqrt(6.0 / (d_in + d_out))
        weights.append(rng.uniform(-bound, bound, size=(d_in, d_out)))
        biases.append(np.zeros(d_out))
    return MlpParams(weights, biases, output)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def mlp_forward(p: MlpParams, x: np.ndarray):
    """Returns (output, cache); the cache is (x, hidden) as _mlp_rest keeps it."""
    z = x @ p.weights[0]
    z += p.biases[0]
    hidden: list[np.ndarray] = []
    return _mlp_rest(p, z, hidden), (x, hidden)


def _mlp_rest(p: MlpParams, z: np.ndarray, hidden: list) -> np.ndarray:
    """Finish a pass from the first layer's pre-activation z (overwritten).

    Appends each hidden activation to hidden, and the output when it is
    logistic. A rectifier's mask is read back from its activation:
    relu(z) > 0 exactly when z > 0, NaN included, so no pre-activation
    is kept.
    """
    for w, b in zip(p.weights[1:], p.biases[1:]):
        hidden.append(np.maximum(z, 0.0, out=z))
        z = hidden[-1] @ w
        z += b
    if p.output == "logistic":
        z = _sigmoid(z)
        hidden.append(z)
    return z


def _mlp_rest_backward(p: MlpParams, hidden: list, dout: np.ndarray, grads: MlpParams):
    """d(first pre-activation) from d(output); adds layers 1.. into grads."""
    d = dout
    if p.output == "logistic":
        s = hidden[-1]
        d = d * s * (1.0 - s)
    for l in range(len(p.weights) - 1, 0, -1):
        a = hidden[l - 1]
        grads.weights[l] += a.T @ d
        grads.biases[l] += d.sum(axis=0)
        d = d @ p.weights[l].T
        d *= a > 0
    return d


def mlp_backward(p: MlpParams, cache, dout: np.ndarray, grads: MlpParams) -> np.ndarray:
    """Adds the parameter gradients of a cached pass into grads; returns d(input)."""
    x, hidden = cache
    dz = _mlp_rest_backward(p, hidden, dout, grads)
    grads.weights[0] += x.T @ dz
    grads.biases[0] += dz.sum(axis=0)
    return dz @ p.weights[0].T


# ------------------------------------------------------------- parameters


@dataclass
class MpnParams:
    """All learnable parameters plus the architecture constants."""

    node_proj: MlpParams
    edge_encoder: MlpParams
    edge_mlp: MlpParams
    past_mlp: MlpParams
    future_mlp: MlpParams
    node_mlp: MlpParams
    classifier_mlp: MlpParams
    embed_dim: int
    node_dim: int
    edge_dim: int
    steps: int

    _COMPONENTS = (
        "node_proj",
        "edge_encoder",
        "edge_mlp",
        "past_mlp",
        "future_mlp",
        "node_mlp",
        "classifier_mlp",
    )

    def __post_init__(self):
        if self.steps < 1:
            raise ValidationError("steps must be >= 1")
        d_v, d_e = self.node_dim, self.edge_dim
        pair_in = 2 * d_v + 2 * d_e
        checks = (
            (self.node_proj, self.embed_dim, d_v),
            (self.edge_encoder, 6, d_e),
            (self.edge_mlp, pair_in, d_e),
            (self.past_mlp, pair_in, d_v),
            (self.future_mlp, pair_in, d_v),
            (self.node_mlp, 2 * d_v, d_v),
            (self.classifier_mlp, 2 * d_e, 1),
        )
        for mlp, d_in, d_out in checks:
            if mlp.in_dim != d_in or mlp.out_dim != d_out:
                raise ValidationError(
                    f"component expects {d_in}->{d_out}, got "
                    f"{mlp.in_dim}->{mlp.out_dim}"
                )
        if self.classifier_mlp.output != "logistic":
            raise ValidationError("classifier must end in a logistic unit")

    def components(self) -> list[tuple[str, MlpParams]]:
        return [(name, getattr(self, name)) for name in self._COMPONENTS]

    def arrays(self) -> list[np.ndarray]:
        """Every parameter array, in a fixed traversal order."""
        out = []
        for _, mlp in self.components():
            for w, b in zip(mlp.weights, mlp.biases):
                out.append(w)
                out.append(b)
        return out


def init_params(
    seed: int,
    embed_dim: int = 16,
    node_dim: int = 32,
    edge_dim: int = 16,
    hidden: int = 64,
    steps: int = 12,
) -> MpnParams:
    rng = np.random.default_rng(seed)
    pair_in = 2 * node_dim + 2 * edge_dim
    return MpnParams(
        node_proj=mlp_init(rng, [embed_dim, node_dim]),
        edge_encoder=mlp_init(rng, [6, hidden, edge_dim]),
        edge_mlp=mlp_init(rng, [pair_in, hidden, edge_dim]),
        past_mlp=mlp_init(rng, [pair_in, hidden, node_dim]),
        future_mlp=mlp_init(rng, [pair_in, hidden, node_dim]),
        node_mlp=mlp_init(rng, [2 * node_dim, hidden, node_dim]),
        classifier_mlp=mlp_init(rng, [2 * edge_dim, hidden, 1], output="logistic"),
        embed_dim=embed_dim,
        node_dim=node_dim,
        edge_dim=edge_dim,
        steps=steps,
    )


def zero_params_like(params: MpnParams) -> MpnParams:
    out = copy.deepcopy(params)
    for arr in out.arrays():
        arr[...] = 0.0
    return out


# ---------------------------------------------------------- graph tensors


@dataclass(frozen=True)
class GraphTensors:
    """Array view of a track graph for the network."""

    u: np.ndarray  # (m,) source node index, earlier in time
    v: np.ndarray  # (m,) target node index
    feats: np.ndarray  # (m, 6) raw edge descriptors
    node_feat: np.ndarray  # (n, D) node appearance vectors
    spans: np.ndarray  # (n, 2) inclusive frame spans

    @property
    def n_nodes(self) -> int:
        return self.node_feat.shape[0]

    @property
    def n_edges(self) -> int:
        return self.u.size


def graph_tensors(graph: TrackGraph) -> GraphTensors:
    """Pack a graph for the network; the one place edge descriptors are made.

    The descriptor of a forward edge u -> v compares u's last box with
    v's first box: offsets normalised by the summed heights, log
    width/height ratios, then the frame gap and the euclidean distance
    of the (mean) appearance vectors. Everything is read from the
    detection set's columns. A part graph's node features are its
    embeddings as they are. A group's mean is one sum over all members
    in node order, divided by the member counts: np.mean over axis 0 of
    a (k, D) array also adds the rows one by one from zero, so the bits
    agree. With 1-d embeddings, for which np.mean sums pairwise, each
    group takes its own np.mean. A one-member group gives the same
    descriptor as its detection. Edges are computed EDGE_BLOCK at a time
    into one preallocated array, so no temporary grows with the edge count: a
    trajectory graph can hold every span-disjoint pair of hundreds of
    fragments, and full-length (edges x embedding) gathers would make
    its packing the largest allocation of a run. Each descriptor is the
    same whatever block holds it.
    """
    if graph.n_nodes == 0:
        raise ValidationError("graph has no nodes")
    u, v, spans = graph.u, graph.v, graph.spans
    node_feat = emb = graph.dets.embeddings()
    first = last = graph.dets.boxes
    if graph.groups is not None:
        offsets, members = graph.groups
        first, last = first[members[offsets[:-1]]], last[members[offsets[1:] - 1]]
        counts = np.diff(offsets)
        if emb.shape[1] == 1:
            node_feat = np.stack([np.mean(emb[members[a:b]], axis=0) for a, b in
                                  zip(offsets[:-1].tolist(), offsets[1:].tolist())])
        else:
            owner = np.repeat(np.arange(counts.size), counts)
            node_feat = (_incidence(owner, counts.size) @ emb[members]) / counts[:, None]
    feats = np.empty((u.size, 6))
    for start in range(0, u.size, EDGE_BLOCK):
        a, b = u[start : start + EDGE_BLOCK], v[start : start + EDGE_BLOCK]
        out = feats[start : start + EDGE_BLOCK]
        bu, bv = np.take(last, a, axis=0), np.take(first, b, axis=0)
        denom = bu[:, 3] + bv[:, 3]
        out[:, 0] = 2.0 * (bv[:, 0] - bu[:, 0]) / denom
        out[:, 1] = 2.0 * (bv[:, 1] - bu[:, 1]) / denom
        out[:, 2] = np.log(bv[:, 2] / bu[:, 2])
        out[:, 3] = np.log(bv[:, 3] / bu[:, 3])
        out[:, 4] = np.take(spans[:, 0], b) - np.take(spans[:, 1], a)
        diff = np.take(node_feat, a, axis=0)
        diff -= np.take(node_feat, b, axis=0)
        # a stacked row-by-row product sums in the order np.linalg.norm
        # uses for one vector, so a descriptor does not depend on its batch
        out[:, 5] = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None]))[:, 0, 0]
    if not np.all(np.isfinite(feats)):
        raise ValidationError("edge descriptors must be finite")
    return GraphTensors(u, v, feats, node_feat, spans)


def _as_tensors(graph: Union[TrackGraph, GraphTensors]) -> GraphTensors:
    if isinstance(graph, GraphTensors):
        return graph
    return graph_tensors(graph)


# ----------------------------------------------------------------- forward


def _incidence(ends: np.ndarray, n: int) -> sparse.csr_array:
    """(n x m) matrix with a one at (ends[k], k).

    A @ x sums the rows of x into their end nodes. Each CSR row holds
    its edges in edge order and adds them one by one from zero, as
    np.add.at does, so the sums are bit-identical to it.
    """
    order = np.argsort(ends, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends, minlength=n), out=indptr[1:])
    return sparse.csr_array((np.ones(ends.size), order, indptr), shape=(n, ends.size))


def _pair_blocks(w: np.ndarray, d_v: int, d_e: int):
    """Row blocks of a pair MLP's first weights: first endpoint, updated
    edge state, initial encoding, second endpoint."""
    return w[:d_v], w[d_v : d_v + d_e], w[d_v + d_e : d_v + 2 * d_e], w[d_v + 2 * d_e :]


def _edge_blocks(m: int) -> list[slice]:
    """Consecutive slices of MLP_BLOCK edges covering range(m).

    A last block of one edge takes one more from the block before it:
    numpy sends a one-row product to BLAS's matrix-vector kernel, which
    sums in another order than the matrix-matrix kernel that every
    longer block (and a one-pass product) uses.
    """
    starts = list(range(0, m, MLP_BLOCK))
    if len(starts) > 1 and m - starts[-1] == 1:
        starts[-1] -= 1
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [m])]


def _scratch(bufs: dict, width: int, slot: int, rows: int) -> np.ndarray:
    """The first rows of block-sized scratch buffer (width, slot), made on first use."""
    buf = bufs.get((width, slot))
    if buf is None:
        buf = bufs[width, slot] = np.empty((MLP_BLOCK, width))
    return buf[:rows]


def _edge_mlp(p: MlpParams, first, out: np.ndarray, hidden: Optional[list],
              bufs: dict) -> np.ndarray:
    """MLP p over every edge, one _edge_blocks block at a time, into out.

    first(rows, z) writes the first layer's pre-activation of the edges
    in slice rows into z. The layers after it run as in _mlp_rest, with
    the same arithmetic on each row whatever block holds it, and the
    last writes into out[rows]. hidden is None, or a list that receives
    the hidden activations as full-length arrays, filled block by block
    (and out when the output is logistic): the layout _mlp_rest keeps.
    Without it, layer l's pre-activation lives in the block-sized
    scratch buffer of slot l % 2 from bufs; slot 1 is free for first.
    """
    m, last = out.shape[0], len(p.weights) - 1
    if hidden is not None:
        hidden.extend(np.empty((m, w.shape[0])) for w in p.weights[1:])
    for rows in _edge_blocks(m):
        n = rows.stop - rows.start
        # where each layer's pre-activation for these rows goes
        zs = [hidden[l][rows] if hidden is not None
              else _scratch(bufs, w.shape[1], l % 2, n)
              for l, w in enumerate(p.weights[:last])]
        zs.append(out[rows])
        first(rows, zs[0])
        for l in range(1, last + 1):
            act = np.maximum(zs[l - 1], 0.0, out=zs[l - 1])
            np.matmul(act, p.weights[l], out=zs[l])
            zs[l] += p.biases[l]
        if p.output == "logistic":
            zs[last][...] = _sigmoid(zs[last])
    if hidden is not None and p.output == "logistic":
        hidden.append(out)
    return out


def _forward(g: GraphTensors, params: MpnParams, keep_cache: bool):
    d_v, d_e = params.node_dim, params.edge_dim
    u, v, m = g.u, g.v, g.n_edges
    to_u, to_v = _incidence(u, g.n_nodes), _incidence(v, g.n_nodes)
    bufs: dict = {}

    def edge_mlp(p: MlpParams, first, out: Optional[np.ndarray] = None):
        """(output, hidden activations kept for backward or None)."""
        hidden = [] if keep_cache else None
        if out is None:
            out = np.empty((m, p.out_dim))
        return _edge_mlp(p, first, out, hidden, bufs), hidden

    h, proj_cache = mlp_forward(params.node_proj, g.node_feat)
    enc = params.edge_encoder

    def encode(rows: slice, z: np.ndarray) -> None:
        np.matmul(g.feats[rows], enc.weights[0], out=z)
        z += enc.biases[0]

    e0, enc_hidden = edge_mlp(enc, encode)
    # (mlp, first endpoint, second endpoint): the future MLP reads the
    # later node first
    pairs = (
        (params.edge_mlp, u, v),
        (params.past_mlp, u, v),
        (params.future_mlp, v, u),
    )
    # the initial encoding's share of each first layer is the same at
    # every step; with one step, only the edge MLP runs
    fixed = []
    for mlp, _, _ in pairs[: 3 if params.steps > 1 else 1]:
        share = e0 @ _pair_blocks(mlp.weights[0], d_v, d_e)[2]
        share += mlp.biases[0]
        fixed.append(share)

    def pair_input(k: int, core: np.ndarray):
        """(mlp, first-layer writer) of pair MLP k on [h[a], core, e0, h[c]],
        built at node width."""
        mlp, a, c = pairs[k]
        w_a, w_core, _, w_c = _pair_blocks(mlp.weights[0], d_v, d_e)
        at_a, at_c, share = h @ w_a, h @ w_c, fixed[k]

        def first(rows: slice, z: np.ndarray) -> None:
            buf = _scratch(bufs, z.shape[1], 1, z.shape[0])
            # "clip" lets take write into its output directly; _incidence
            # has already refused an endpoint outside [0, n)
            np.take(at_a, a[rows], axis=0, out=z, mode="clip")
            z += np.take(at_c, c[rows], axis=0, out=buf, mode="clip")
            z += np.matmul(core[rows], w_core, out=buf)
            z += share[rows]

        return mlp, first

    # past and future messages share one array: each is summed to the
    # nodes before the next is written
    messages = np.empty((m, d_v))
    core = e0
    edge_steps, node_steps = [], []
    for step in range(params.steps):
        core_new, edge_hidden = edge_mlp(*pair_input(0, core))
        if keep_cache:
            edge_steps.append((h, core, edge_hidden))
        # no node update follows the last edge update: no score reads it
        if step + 1 < params.steps:
            past_hidden = edge_mlp(*pair_input(1, core_new), out=messages)[1]
            past_sum = to_v @ messages
            fut_hidden = edge_mlp(*pair_input(2, core_new), out=messages)[1]
            fut_sum = to_u @ messages
            h_new, node_cache = mlp_forward(params.node_mlp, np.hstack([past_sum, fut_sum]))
            if keep_cache:
                node_steps.append((h, core_new, past_hidden, fut_hidden, node_cache))
            h = h_new
        core = core_new
    # the shares are dead now; freeing them makes room for the
    # classifier's full-length hidden layer. The classifier runs over all
    # edges at once: its one-column output is a matrix-vector product,
    # which BLAS may split between threads by the total row count, so a
    # block's sums could differ from a one-pass product's
    fixed.clear()
    ebar = np.hstack([core, e0])
    scores, clf_cache = mlp_forward(params.classifier_mlp, ebar)
    scores = scores.ravel()
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(scores))):
        raise NumericError("message passing produced non-finite values")
    cache = None
    if keep_cache:
        cache = (to_u, to_v, e0, proj_cache, (g.feats, enc_hidden), edge_steps, node_steps,
                 clf_cache)
    return ebar, scores, cache


def forward(
    graph: Union[TrackGraph, GraphTensors], params: MpnParams
) -> tuple[np.ndarray, np.ndarray]:
    """Run message passing; returns the final (m, 2 * edge_dim) edge states,
    initial encoding in the second half, and per-edge scores."""
    return _forward(_as_tensors(graph), params, keep_cache=False)[:2]


# -------------------------------------------------------------- focal loss


def focal_loss(scores: np.ndarray, labels: np.ndarray, gamma: float = 1.0) -> float:
    """Mean focal term -(1 - p_t)^gamma log p_t; gamma=0 recovers BCE."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValidationError("scores and labels must align")
    if scores.size == 0:
        return 0.0
    p = np.clip(scores, _SCORE_CLAMP, 1.0 - _SCORE_CLAMP)
    p_t = np.where(labels == 1, p, 1.0 - p)
    return float(np.mean(-((1.0 - p_t) ** gamma) * np.log(p_t)))


def focal_grad(scores: np.ndarray, labels: np.ndarray, gamma: float = 1.0) -> np.ndarray:
    """d(mean focal)/d(scores), zero where the clamp is active."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.size == 0:
        return np.zeros_like(scores)
    p = np.clip(scores, _SCORE_CLAMP, 1.0 - _SCORE_CLAMP)
    p_t = np.where(labels == 1, p, 1.0 - p)
    if gamma == 0.0:
        dl_dpt = -1.0 / p_t
    else:
        dl_dpt = gamma * (1.0 - p_t) ** (gamma - 1.0) * np.log(p_t) - (
            (1.0 - p_t) ** gamma
        ) / p_t
    dpt_ds = np.where(labels == 1, 1.0, -1.0)
    active = (scores > _SCORE_CLAMP) & (scores < 1.0 - _SCORE_CLAMP)
    return np.where(active, dl_dpt * dpt_ds, 0.0) / scores.size


# ---------------------------------------------------------------- backward


def backward(
    graph: Union[TrackGraph, GraphTensors],
    params: MpnParams,
    labels: np.ndarray,
    gamma: float = 1.0,
) -> tuple[float, np.ndarray, MpnParams]:
    """Loss, scores, and exact parameter gradients (as an MpnParams tree)."""
    g = _as_tensors(graph)
    labels = np.asarray(labels)
    if labels.shape != (g.n_edges,):
        raise ValidationError("labels must align with graph edges")
    _, scores, cache = _forward(g, params, keep_cache=True)
    to_u, to_v, e0, proj_cache, enc_cache, edge_steps, node_steps, clf_cache = cache
    loss = focal_loss(scores, labels, gamma)

    grads = zero_params_like(params)
    d_v, d_e = params.node_dim, params.edge_dim
    u, v = g.u, g.v

    dscores = focal_grad(scores, labels, gamma)
    debar = mlp_backward(params.classifier_mlp, clf_cache, dscores[:, None],
                         grads.classifier_mlp)
    dcore = debar[:, :d_e]
    de0 = debar[:, d_e:].copy()

    def pair_backward(p, dp, hidden, dout, h, core, to_a, to_c, dh, de0):
        """Backward through a pair MLP; adds to dh and de0, returns d(core).

        d(first pre-activation) is summed to nodes before it meets the
        node blocks of the weights, so no pair-wide input is rebuilt.
        """
        dz = _mlp_rest_backward(p, hidden, dout, dp)
        w_a, w_core, w_init, w_c = _pair_blocks(p.weights[0], d_v, d_e)
        dw_a, dw_core, dw_init, dw_c = _pair_blocks(dp.weights[0], d_v, d_e)
        dz_a, dz_c = to_a @ dz, to_c @ dz
        dw_a += h.T @ dz_a
        dw_core += core.T @ dz
        dw_init += e0.T @ dz
        dw_c += h.T @ dz_c
        dp.biases[0] += dz.sum(axis=0)
        dh += dz_a @ w_a.T
        dh += dz_c @ w_c.T
        de0 += dz @ w_init.T
        return dz @ w_core.T

    dh = np.zeros((g.n_nodes, d_v))
    for step in range(params.steps - 1, -1, -1):
        # every step but the last updates the nodes after its edges
        if step < len(node_steps):
            h, core_new, past_hidden, fut_hidden, node_cache = node_steps[step]
            dnode_in = mlp_backward(params.node_mlp, node_cache, dh, grads.node_mlp)
            dh = np.zeros((g.n_nodes, d_v))
            # a past message of edge k went to v[k], a future one to u[k]
            dcore = dcore + pair_backward(
                params.past_mlp, grads.past_mlp, past_hidden, dnode_in[:, :d_v][v],
                h, core_new, to_u, to_v, dh, de0)
            dcore += pair_backward(
                params.future_mlp, grads.future_mlp, fut_hidden, dnode_in[:, d_v:][u],
                h, core_new, to_v, to_u, dh, de0)
        h, core, edge_hidden = edge_steps[step]
        dcore = pair_backward(
            params.edge_mlp, grads.edge_mlp, edge_hidden, dcore,
            h, core, to_u, to_v, dh, de0)

    # step 0's edge state is the initial encoding itself
    de0 += dcore
    mlp_backward(params.edge_encoder, enc_cache, de0, grads.edge_encoder)
    mlp_backward(params.node_proj, proj_cache, dh, grads.node_proj)
    return loss, scores, grads


# ------------------------------------------------------------------ labels


def edge_labels(graph: TrackGraph) -> np.ndarray:
    """1 for edges linking consecutive same-identity fragments, else 0.

    An edge is positive when both endpoints are identity-pure, share
    the identity, and no observed detection of that identity falls
    strictly between u's last frame and v's first frame. Every
    (identity, frame) a member shows is one sorted key; a pure node's
    first and last frame are keys of its identity, so the keys strictly
    between u's last and v's first are the frames in between.
    """
    gt, frames = graph.dets.gt_ids, graph.dets.frames
    if graph.groups is not None:
        offsets, members = graph.groups
        gt, frames = gt[members], frames[members]
    lowest = highest = gt  # with no members, there is no node either
    if graph.groups is not None and gt.size:
        lowest = np.minimum.reduceat(gt, offsets[:-1])
        highest = np.maximum.reduceat(gt, offsets[:-1])
    # a node is pure when its members' smallest and largest id agree and
    # are an identity (gt_ids holds -1 for none)
    pure = (lowest == highest) & (lowest >= 0)
    known = gt >= 0
    ids, number = np.unique(gt[known], return_inverse=True)
    frame_set, rank = np.unique(frames[known], return_inverse=True)
    keys = np.unique(number * frame_set.size + rank)
    node_number = np.where(pure, np.searchsorted(ids, lowest), -1)
    pos = np.searchsorted(keys, node_number[:, None] * frame_set.size
                          + np.searchsorted(frame_set, graph.spans))
    u, v = graph.u, graph.v
    positive = pure[u] & (node_number[u] == node_number[v]) & (pos[v, 0] <= pos[u, 1] + 1)
    return positive.astype(np.int64)


def oracle_scores(graph: TrackGraph) -> np.ndarray:
    """Ground-truth edge scores: the labels as floats."""
    return edge_labels(graph).astype(np.float64)


def _handcrafted_block(feats: np.ndarray) -> np.ndarray:
    """handcrafted_scores of (k, 6) descriptor rows."""
    dx, dy, lw, lh, dt, de = feats.T
    drift = np.hypot(dx, dy) / np.maximum(dt, 1.0)
    logit = (
        5.0
        - 8.0 * drift
        - 4.0 * (np.abs(lw) + np.abs(lh))
        - 4.5 * de
        - 0.15 * (dt - 1.0)
    )
    return _sigmoid(logit)


def handcrafted_scores(graph: Union[TrackGraph, GraphTensors]) -> np.ndarray:
    """Fixed-weight fallback classifier on the raw edge descriptors.

    Penalises positional drift per frame of gap, size changes,
    appearance distance, and long gaps. Tuned once against the
    synthetic generator; useful when no trained checkpoint exists.
    """
    g = _as_tensors(graph)
    scores = np.empty(g.n_edges)
    for start in range(0, g.n_edges, EDGE_BLOCK):
        scores[start : start + EDGE_BLOCK] = _handcrafted_block(
            g.feats[start : start + EDGE_BLOCK])
    return scores


def handcrafted_reach(eps: float) -> int:
    """The largest frame gap at which a handcrafted score can exceed eps.

    A descriptor with no drift, no size change and no appearance
    distance scores highest at its gap; every other term of the logit
    only subtracts, and the score falls as the gap grows, so no edge
    with a longer gap scores above eps. Those best-case descriptors are
    scored by handcrafted_scores' own arithmetic, on gaps doubling in
    number until one fails. 0 when no gap passes, as at eps 1.
    """
    if not (0.0 < eps <= 1.0):
        raise ValidationError(f"eps must lie in (0, 1], got {eps}")
    gaps = 64
    while True:
        best = np.zeros((gaps, 6))
        best[:, 4] = np.arange(1, gaps + 1)
        passing = np.flatnonzero(_handcrafted_block(best) > eps)
        # sigmoid underflows to 0 within about 5,000 frames of gap
        if passing.size < gaps:
            return int(passing[-1]) + 1 if passing.size else 0
        gaps *= 2


# ------------------------------------------------------------- checkpoints


def save_params(path: Union[str, Path], params: MpnParams) -> None:
    """Versioned little-endian binary checkpoint (float32 weights)."""
    head = [params.embed_dim, params.node_dim, params.edge_dim, params.steps]
    shapes: list[int] = []
    arrays = []
    for _, mlp in params.components():
        shapes.append(len(mlp.weights))
        shapes.append(1 if mlp.output == "logistic" else 0)
        for w, b in zip(mlp.weights, mlp.biases):
            shapes.extend(w.shape)
            arrays.append(w.astype("<f4").ravel())
            arrays.append(b.astype("<f4"))
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(np.asarray(head + shapes, dtype="<u8").tobytes())
        for arr in arrays:
            fh.write(arr.tobytes())


def _ckpt_error(path):
    return ParseError(f"checkpoint {path} is malformed or truncated")


def load_params(path: Union[str, Path]) -> MpnParams:
    raw = Path(path).read_bytes()
    if raw[: len(_CKPT_MAGIC)] != _CKPT_MAGIC:
        raise _ckpt_error(path)
    # layout mirrors save_params; consume the integer header first. The
    # header length is data-dependent, so read it word by word instead
    # of viewing the whole remainder as integers (the float32 weights
    # need not align to 8 bytes).
    pos = len(_CKPT_MAGIC)

    def take(k):
        nonlocal pos
        end = pos + 8 * k
        if end > len(raw):
            raise _ckpt_error(path)
        out = np.frombuffer(raw, dtype="<u8", count=k, offset=pos)
        pos = end
        return [int(x) for x in out]

    embed_dim, node_dim, edge_dim, steps = take(4)
    comp_shapes = []
    for _ in MpnParams._COMPONENTS:
        n_layers, logistic = take(2)
        layers = [tuple(take(2)) for _ in range(n_layers)]
        comp_shapes.append((layers, "logistic" if logistic else "linear"))
    try:
        data = np.frombuffer(raw, dtype="<f4", offset=pos).astype(np.float64)
    except ValueError:
        raise _ckpt_error(path) from None

    cursor = 0

    def pull(count):
        nonlocal cursor
        out = data[cursor : cursor + count]
        if out.size != count:
            raise _ckpt_error(path)
        cursor += count
        return out

    mlps = []
    for layers, output in comp_shapes:
        weights, biases = [], []
        for d_in, d_out in layers:
            weights.append(pull(d_in * d_out).reshape(d_in, d_out))
            biases.append(pull(d_out))
        mlps.append(MlpParams(weights, biases, output))
    if cursor != data.size:
        raise _ckpt_error(path)
    return MpnParams(
        *mlps,
        embed_dim=embed_dim,
        node_dim=node_dim,
        edge_dim=edge_dim,
        steps=steps,
    )


# ---------------------------------------------------------------- training


@dataclass(frozen=True)
class TrainSchedule:
    """Plain gradient descent settings with staged second-pass loss."""

    iterations: int = 2000
    learning_rate: float = 3e-4
    weight_decay: float = 1e-4
    gamma: float = 1.0
    unfreeze_second_at: int = 500

    def __post_init__(self):
        if self.iterations < 0:
            raise ValidationError("iterations must be non-negative")
        for name in ("learning_rate", "weight_decay", "gamma"):
            value = getattr(self, name)
            if not 0.0 <= value < np.inf:
                raise ValidationError(f"{name} must be finite and non-negative, got {value}")


@dataclass
class TrainResult:
    params: MpnParams
    history: list[tuple[int, float]]


LabelledGraph = tuple[GraphTensors, np.ndarray]


def train(
    primary: Sequence[LabelledGraph],
    secondary: Sequence[LabelledGraph],
    params: MpnParams,
    schedule: TrainSchedule,
) -> TrainResult:
    """Full-batch descent over labelled graphs.

    One parameter set serves both the detection-level and the
    trajectory-level pass; the trajectory graphs join the loss only
    from iteration unfreeze_second_at onwards. Weight decay applies to
    weight matrices, not biases.
    """
    if not primary:
        raise ValidationError("training needs at least one labelled graph")
    params = copy.deepcopy(params)
    history = []
    for it in range(schedule.iterations):
        batch = list(primary)
        if it >= schedule.unfreeze_second_at:
            batch += list(secondary)
        total_loss = 0.0
        total = zero_params_like(params)
        for g, labels in batch:
            loss, _, grads = backward(g, params, labels, schedule.gamma)
            total_loss += loss
            for acc, piece in zip(total.arrays(), grads.arrays()):
                acc += piece
        total_loss /= len(batch)
        if not np.isfinite(total_loss):
            raise NumericError(f"training diverged at iteration {it}")
        history.append((it, total_loss))
        for p_arr, g_arr in zip(params.arrays(), total.arrays()):
            step = g_arr * (1.0 / len(batch))
            if p_arr.ndim == 2 and schedule.weight_decay:
                step = step + schedule.weight_decay * p_arr
            p_arr -= schedule.learning_rate * step
    return TrainResult(params=params, history=history)
