"""Reverse-mode differentiation over the fixed primitive set the model needs.

A training step's computation graph is static, so a linear tape is enough:
forward calls record nodes in order and ``backward`` walks them in exact
reverse order. Values are plain numpy arrays (float64 in tests, float32 in
production mode); sparse operands are scipy CSR wrapped in ``SparseMatrix``
so the transpose needed by the backward pass is built once.
"""
from __future__ import annotations

import logging

import numpy as np
import scipy.sparse as sp

log = logging.getLogger(__name__)

# Rows with L2 norm below this floor are passed through unchanged by
# row_l2_normalize and treated as similarity 0 by infonce_sum.
NORM_FLOOR = 1e-12

# infonce_sum's forward builds the loss and its gradient one block of anchor
# rows at a time, never N x N, and backward builds none. A block of N logits
# per row holds at most INFONCE_CHUNK rows and at most INFONCE_BLOCK_BYTES.
INFONCE_CHUNK = 512
INFONCE_BLOCK_BYTES = 4 << 20


class DiffError(RuntimeError):
    """Tape misuse or a numerical failure during the backward pass."""


class Tensor:
    """Array tracked on a tape (up to 3 axes; scalars are 0-d arrays)."""

    __slots__ = ("value", "name", "node")

    def __init__(self, value: np.ndarray, name: str = "", node: int | None = None):
        self.value = value
        self.name = name
        self.node = node  # position of the producing node on its tape; None for a leaf

    @property
    def produced(self) -> bool:
        return self.node is not None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        tag = self.name or ("node" if self.produced else "leaf")
        return f"Tensor({tag}, shape={self.value.shape})"


class SparseMatrix:
    """Constant CSR operand for spmm; caches its transpose for backward."""

    def __init__(self, mat):
        self.mat = sp.csr_matrix(mat)
        self.mat.sort_indices()
        self.mat_t = self.mat.T.tocsr()
        self.mat_t.sort_indices()

    @property
    def shape(self) -> tuple[int, int]:
        return self.mat.shape

    @property
    def T(self) -> "SparseMatrix":
        """The transpose, sharing this operand's two CSR arrays (no copy)."""
        out = SparseMatrix.__new__(SparseMatrix)
        out.mat, out.mat_t = self.mat_t, self.mat
        return out

    def at_rows(self, rows: np.ndarray | None) -> "SparseMatrix":
        """The operand's sorted ``rows``, all of it when None. The transpose is a
        CSC view, which spmm sums in a sorted CSR copy's order, bit for bit."""
        if rows is None:
            return self
        out = SparseMatrix.__new__(SparseMatrix)
        out.mat = self.mat[rows]
        out.mat_t = out.mat.T
        return out


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; the numerator is exactly 1 or e by sign, picked
    # by arithmetic on the 0/1 mask, as a select over a random mask is slower.
    # min(x, -x) rather than -|x| keeps a NaN's sign bit as the masked form did.
    e = np.exp(np.minimum(x, -x))
    pos = (x >= 0).astype(e.dtype)
    return (pos + e * (1.0 - pos)) / (1.0 + e)


def _scatter_rows(shape: tuple[int, ...], idx: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Zeros of ``shape`` with ``rows`` added at ``idx``, repeats accumulating."""
    buf = np.zeros(shape, dtype=rows.dtype)
    if (idx[1:] > idx[:-1]).all():
        buf[idx] = rows + 0.0  # unique rows; + 0.0 makes -0.0 +0.0 as adding to zeros does
    else:
        np.add.at(buf, idx, rows)
    return buf


class Tape:
    """Single-owner record of one forward pass.

    A node names its output and each produced input by tape position, and a
    leaf input by its ``Tensor``: the tape keeps alive only the leaves and the
    values that VJPs captured. :func:`backward` seals the tape: recording
    after it is an error. A tape made with ``record=False`` keeps no node, so
    a forward that is never differentiated frees each intermediate once it
    drops it; ``backward`` and ``inputs`` refuse such a tape.
    """

    def __init__(self, record: bool = True):
        self._nodes: list[tuple] = []  # (op name, position, input refs, vjp)
        self._record = record
        self._sealed = False

    def leaf(self, value, name: str = "") -> Tensor:
        return Tensor(np.asarray(value), name=name)

    def inputs(self) -> set[Tensor]:
        """Every leaf that a recorded node has taken as an input."""
        if not self._record:
            raise DiffError("an unrecorded tape has no inputs")
        return {t for _, _, inputs, _ in self._nodes for t in inputs if isinstance(t, Tensor)}

    def _emit(self, op: str, value: np.ndarray, inputs: tuple[Tensor, ...], vjp) -> Tensor:
        if self._sealed:
            raise DiffError("cannot record a primitive on a tape after backward")
        out = Tensor(value, node=len(self._nodes))
        if self._record:
            self._nodes.append((op, out.node, tuple(t.node if t.produced else t for t in inputs), vjp))
        return out

    # -- elementwise / scalar assembly ------------------------------------

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        if a.value.shape != b.value.shape:
            raise ValueError(f"add: shape mismatch {a.shape} vs {b.shape}")
        return self._emit("add", a.value + b.value, (a, b), lambda g: (g, g))

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.value.shape != b.value.shape:
            raise ValueError(f"mul: shape mismatch {a.shape} vs {b.shape}")
        av, bv = a.value, b.value
        return self._emit("mul", av * bv, (a, b), lambda g: (g * bv, g * av))

    def scale(self, a: Tensor, c: float) -> Tensor:
        c = float(c)
        return self._emit("scale", a.value * c, (a,), lambda g: (g * c,))

    def sum_all(self, x: Tensor) -> Tensor:
        shape = x.value.shape

        def vjp(g):
            return (np.broadcast_to(g, shape).astype(g.dtype, copy=True),)

        return self._emit("sum_all", np.asarray(x.value.sum()), (x,), vjp)

    def sum_squares(self, *xs: Tensor) -> Tensor:
        """Sum of the squares of every entry of every input."""
        squares = [(x.value * x.value).sum() for x in xs]
        total = np.asarray(sum(squares[1:], squares[0]))
        # g*x + g*x matches squaring by mul(x, x), which writes g*x twice. That
        # holds only because this is the first node to write a regularized
        # leaf's gradient: later nodes write only to primitive outputs.
        return self._emit("sum_squares", total, xs,
                          lambda g: tuple(gx + gx for gx in (g * x.value for x in xs)))

    # -- dense / sparse linear algebra -------------------------------------

    def affine(self, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
        xv, wv, bv = x.value, w.value, b.value
        if (xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0]
                or bv.shape != (wv.shape[1],)):
            raise ValueError(f"affine: incompatible shapes {x.shape} x {w.shape} + {b.shape}")
        return self._emit("affine", xv @ wv + bv[None, :], (x, w, b),
                          lambda g: (g @ wv.T, xv.T @ g, g.sum(axis=0)))

    def spmm(self, adj: SparseMatrix, x: Tensor) -> Tensor:
        if x.value.ndim != 2 or adj.shape[1] != x.value.shape[0]:
            raise ValueError(f"spmm: incompatible shapes {adj.shape} x {x.shape}")
        return self._emit("spmm", adj.mat @ x.value, (x,),
                          lambda g: (adj.mat_t @ g,))

    def gather_rows(self, x: Tensor, idx: np.ndarray) -> Tensor:
        idx = np.asarray(idx)
        if idx.ndim != 1:
            raise ValueError("gather_rows expects a 1-d index array")
        shape = x.value.shape
        if idx.size and (idx.min() < 0 or idx.max() >= shape[0]):
            raise ValueError(f"gather_rows: index out of range for {shape[0]} rows")
        return self._emit("gather_rows", x.value[idx], (x,),
                          lambda g: (_scatter_rows(shape, idx, g),))

    def concat_columns(self, *parts: Tensor) -> Tensor:
        if len(parts) < 2:
            raise ValueError("concat_columns needs at least two parts")
        if any(p.value.ndim != 2 for p in parts):
            raise ValueError(f"concat_columns expects 2-d parts, got {[p.shape for p in parts]}")
        if len({p.value.shape[0] for p in parts}) > 1:
            raise ValueError("concat_columns: row counts differ")
        widths = [p.value.shape[1] for p in parts]
        splits = np.cumsum(widths)[:-1]

        def vjp(g):
            return tuple(np.hsplit(g, splits))

        return self._emit("concat_columns", np.concatenate([p.value for p in parts], axis=1),
                          tuple(parts), vjp)

    def lowrank_apply(self, w1: Tensor, w2: Tensor, x: Tensor) -> Tensor:
        """Per row ``W1 (W2 x)``, where ``W1`` (d, k) and ``W2`` (k, d) are that
        row of ``w1`` (N, d*k) and ``w2`` (N, k*d) read row-major."""
        flat = w1.value.shape
        if (x.value.ndim != 2 or len(flat) != 2 or w2.value.shape != flat
                or flat[0] != x.value.shape[0] or not x.value.shape[1] or flat[1] % x.value.shape[1]):
            raise ValueError("lowrank_apply expects (N,d*k), (N,k*d), (N,d), got "
                             f"{w1.shape}, {w2.shape}, {x.shape}")
        n, d = x.value.shape
        k = flat[1] // d
        # Row-major views; the flattened layout is part of the checkpoint contract.
        w1v, w2v, xv = w1.value.reshape(n, d, k), w2.value.reshape(n, k, d), x.value
        # Two k-wide products per row; the d x d matrix is never materialized.
        t = np.einsum("nkd,nd->nk", w2v, xv)
        y = np.einsum("ndk,nk->nd", w1v, t)

        def vjp(g):
            dw1 = np.einsum("nd,nk->ndk", g, t)
            dt = np.einsum("ndk,nd->nk", w1v, g)
            dw2 = np.einsum("nk,nd->nkd", dt, xv)
            dx = np.einsum("nkd,nk->nd", w2v, dt)
            return (dw1.reshape(n, d * k), dw2.reshape(n, k * d), dx)

        return self._emit("lowrank_apply", y, (w1, w2, x), vjp)

    # -- nonlinearities -----------------------------------------------------

    def sigmoid(self, x: Tensor) -> Tensor:
        s = _stable_sigmoid(x.value)
        return self._emit("sigmoid", s, (x,), lambda g: (g * s * (1.0 - s),))

    def prelu(self, x: Tensor, slope: Tensor) -> Tensor:
        if slope.value.shape != ():
            raise ValueError("prelu slope must be a scalar tensor")
        a = float(slope.value)
        xv = x.value
        # x where x >= 0, else a*x, without a select over the sign mask. On a
        # tie (x = +-0) numpy's maximum and minimum return their second operand.
        out = np.maximum(a * xv, xv) if a <= 1 else np.minimum(a * xv, xv)

        def vjp(g):
            pos = (xv >= 0).astype(g.dtype)
            dx = g * (pos + a * (1.0 - pos))  # g * 1 or g * a, exactly
            da = np.asarray((g * np.minimum(xv, 0.0)).sum(), dtype=g.dtype)
            return (dx, da)

        return self._emit("prelu", out, (x, slope), vjp)

    def bpr_rows(self, e_user: Tensor, e_item: Tensor, users: np.ndarray,
                 pos: np.ndarray, neg: np.ndarray) -> Tensor:
        """Per-triple BPR loss ``softplus(s_neg - s_pos)``, the stable form of
        ``-ln sigmoid(s_pos - s_neg)``; ``s`` is a user row dot an item row."""
        uv, iv = e_user.value, e_item.value
        if uv.ndim != 2 or iv.ndim != 2 or uv.shape[1] != iv.shape[1]:
            raise ValueError(f"bpr_rows: incompatible shapes {e_user.shape}, {e_item.shape}")
        users, pos, neg = (np.asarray(i) for i in (users, pos, neg))
        if users.ndim != 1 or not users.shape == pos.shape == neg.shape:
            raise ValueError("bpr_rows expects three 1-d index arrays of one length")
        for idx, n in ((users, uv.shape[0]), (pos, iv.shape[0]), (neg, iv.shape[0])):
            if idx.size and (idx.min() < 0 or idx.max() >= n):
                raise ValueError(f"bpr_rows: index out of range for {n} rows")
        eu, ep, en = uv[users], iv[pos], iv[neg]
        x = ((eu * ep).sum(axis=1) - (eu * en).sum(axis=1)) * -1.0

        def vjp(g):
            # Negative-pair rows, then positive-pair rows: the unfused chain's sum order.
            gp = ((g * _stable_sigmoid(x)) * -1.0)[:, None]
            gn = -gp
            return (_scatter_rows(uv.shape, users, gn * en) + _scatter_rows(uv.shape, users, gp * ep),
                    _scatter_rows(iv.shape, neg, gn * eu) + _scatter_rows(iv.shape, pos, gp * eu))

        out = np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)
        return self._emit("bpr_rows", out, (e_user, e_item), vjp)

    def row_l2_normalize(self, x: Tensor) -> Tensor:
        if x.value.ndim != 2:
            raise ValueError("row_l2_normalize expects a 2-d tensor")
        xv = x.value
        norms = np.sqrt((xv * xv).sum(axis=1))
        passthrough = norms < NORM_FLOOR
        inv = np.where(passthrough, 1.0, 1.0 / np.where(passthrough, 1.0, norms))
        y = xv * inv[:, None]

        def vjp(g):
            dot = (g * y).sum(axis=1)
            dx = (g - y * dot[:, None]) * inv[:, None]
            if passthrough.any():
                dx[passthrough] = g[passthrough]
            return (dx,)

        return self._emit("row_l2_normalize", y, (x,), vjp)

    def infonce_sum(self, anchors: Tensor, targets: Tensor, temperature: float) -> Tensor:
        """Sum over anchors of InfoNCE ``logsumexp_j(C_ij / t) - C_ii / t`` over the
        cosine matrix ``C`` of anchor rows against target rows, aligned pairs on its
        diagonal. The forward computes the loss and both input gradients in blocks
        of at most ``INFONCE_CHUNK`` anchor rows and ``INFONCE_BLOCK_BYTES`` of
        logits; the VJP only scales those by ``g / t``.

        No logit exceeds ``1 / t``. A block's first product, ``[a/t | -1/t] @ [b |
        1].T``, subtracts that bound, so ``exp`` cannot overflow and is the only
        pass over the block; the second, ``exp(z) @ [b | 1]``, ends in the row sums,
        and the aligned pairs are taken in closed form. A shifted logit can reach
        ``-2 / t``: below ``t`` = 0.0458 at f32 and 0.00565 at f64, ``exp(-2 / t)``
        is under the square root of the smallest normal and a row could sum to 0,
        so there each row is also shifted by its max."""
        av, bv = anchors.value, targets.value
        if av.ndim != 2 or av.shape != bv.shape:
            raise ValueError(f"infonce_sum: incompatible shapes {anchors.shape}, {targets.shape}")
        if not 0 < temperature < np.inf:
            raise ValueError(f"infonce_sum: temperature must be finite and > 0, got {temperature}")
        inv_tau = 1.0 / float(temperature)
        na = np.sqrt((av * av).sum(axis=1))
        nb = np.sqrt((bv * bv).sum(axis=1))
        za, zb = na < NORM_FLOOR, nb < NORM_FLOOR
        if za.any() or zb.any():
            log.warning("infonce_sum: %d/%d near-zero rows treated as similarity 0",
                        int(za.sum()), int(zb.sum()))
        inv_a = np.where(za, 0.0, 1.0 / np.where(za, 1.0, na))
        inv_b = np.where(zb, 0.0, 1.0 / np.where(zb, 1.0, nb))
        ah = av * inv_a[:, None]
        bh = bv * inv_b[:, None]
        n = len(av)
        a1 = np.hstack([ah * inv_tau, np.full((n, 1), -inv_tau, ah.dtype)])
        b1 = np.hstack([bh, np.ones((n, 1), bh.dtype)])
        row_max = 2.0 * inv_tau > -0.5 * np.log(np.finfo(ah.dtype).tiny)
        rows, ga, gb = np.empty(n, ah.dtype), np.empty_like(ah), np.zeros_like(bh)
        step = max(1, min(INFONCE_CHUNK, INFONCE_BLOCK_BYTES // max(1, n * ah.itemsize)))
        # Every block reuses one buffer: a fresh one page-faults each time.
        block = np.empty((min(n, step), n), ah.dtype)
        for i in range(0, n, step):
            blk = slice(i, i + step)
            z = np.matmul(a1[blk], b1.T, out=block[: min(n - i, step)])  # logits - 1/t
            if row_max:
                mx = z.max(axis=1)
                z -= mx[:, None]
            np.exp(z, out=z)
            zs = z @ b1  # [exp(z) @ bh | row sums s]
            s = zs[:, -1]
            rows[blk] = np.log(s) + mx if row_max else np.log(s)
            inv_s = (1.0 / s)[:, None]
            # Softmax minus the identity: row i against bh, and its transpose against ah.
            ga[blk] = zs[:, :-1] * inv_s - bh[blk]
            gb += z.T @ (ah[blk] * inv_s)
        block = z = None  # so that the normalisation's temporaries do not add to it
        gb -= ah
        # Each row adds back the bound and subtracts its aligned logit C_ii / t.
        rows += (1.0 - (ah * bh).sum(axis=1)) * inv_tau
        # Row i of (softmax - I) * C sums to ah_i . ga_i and column j to bh_j . gb_j.
        for grad, h, inv in ((ga, ah, inv_a), (gb, bh, inv_b)):
            grad -= h * (h * grad).sum(axis=1)[:, None]
            grad *= inv[:, None]
        da, db = ga, gb

        def vjp(g):
            c = g * inv_tau
            return (da * c, db * c)

        return self._emit("infonce_sum", np.asarray(rows.sum()), (anchors, targets), vjp)


def backward(tape: Tape, loss: Tensor, wrt: list[Tensor]) -> list[np.ndarray | None]:
    """Gradients of ``loss`` with respect to the leaves in ``wrt``, in order;
    None for a leaf that ``loss`` does not reach.

    No gradient is stored on a tensor. Pending gradients live in a dict local
    to this call, keyed by node position (a leaf by its ``Tensor``), and each
    is dropped as soon as its node's VJP has consumed it. Gradients add up
    when a tensor feeds several nodes; leaves outside ``wrt`` get none. A
    tensor's first gradient is the array a VJP returned, which other tensors
    may share (``add`` returns ``g`` twice, ``concat_columns`` views of it), so
    no VJP nor caller such as ``adam_step`` may write to a gradient. Only
    ``backward`` writes, and only into the array it built for a tensor's
    second contribution.

    Finiteness is checked once, on the returned gradients; if one is
    non-finite the pass is replayed checking every VJP output, so that the
    ``DiffError`` names the primitive. A non-finite value that reaches no leaf
    of ``wrt`` is not reported, and one made only by adding two finite parts
    is left for ``adam_step`` to reject.
    """
    if not tape._record:
        raise DiffError("cannot differentiate an unrecorded tape")
    if loss.value.shape != ():
        raise DiffError(f"loss must be scalar, got shape {loss.value.shape}")
    if any(t.produced for t in wrt):
        raise DiffError("backward returns gradients of leaves only")
    tape._sealed = True
    leaves = set(wrt)
    for checked in (False, True):
        pending = {loss.node if loss.produced else loss: np.asarray(1.0, dtype=loss.value.dtype)}
        owned: set[int | Tensor] = set()
        for op, out, inputs, vjp in reversed(tape._nodes):
            og = pending.pop(out, None)
            if og is None:
                continue
            for t, g in zip(inputs, vjp(og)):
                if isinstance(t, Tensor) and t not in leaves:
                    continue
                if checked and not np.isfinite(g).all():
                    raise DiffError(f"non-finite gradient produced by primitive '{op}'")
                if t not in pending:
                    pending[t] = g
                elif t in owned:
                    pending[t] += g
                else:
                    pending[t] = pending[t] + g
                    owned.add(t)
        grads = [pending.get(t) for t in wrt]
        if checked or all(g is None or np.isfinite(g).all() for g in grads):
            return grads


class _SignTape(Tape):
    """A tape that records the sign pattern of every ``prelu`` input, in call order."""

    def __init__(self):
        super().__init__()
        self.signs: list[bytes] = []

    def prelu(self, x: Tensor, slope: Tensor) -> Tensor:
        self.signs.append((x.value > 0).tobytes())
        return super().prelu(x, slope)


def grad_check(builder, inputs: dict[str, np.ndarray], eps: float = 1e-5,
               max_coords: int | None = 200, seed: int = 0) -> float:
    """Compare analytic gradients of ``builder`` against central differences.

    ``builder(tape, tensors)`` must deterministically build a scalar loss from
    the leaf tensors created for ``inputs``. Only inputs that the loss reaches
    are probed: an unreached one has no analytic gradient and an exactly zero
    difference. When their total coordinate count exceeds ``max_coords`` a
    seeded random subset of that size is probed (``None`` probes everything).
    Probes whose two evaluations disagree on any prelu input sign are skipped
    (the perturbation crossed a kink). Returns the max over probed coordinates
    of ``max(0, |a - fd| - noise) / (|a| + |fd| + 1e-12)``, where ``noise =
    eps_mach * max(|f+|, |f-|) / eps`` bounds the rounding error of the
    central difference itself.
    """
    arrays = {k: np.asarray(v, dtype=np.float64) for k, v in inputs.items()}

    def run(value_map, with_grads):
        tape = _SignTape()
        tensors = {k: tape.leaf(v, name=k) for k, v in value_map.items()}
        loss = builder(tape, tensors)
        if loss.value.shape != ():
            raise DiffError("grad_check requires a scalar loss")
        if with_grads:
            return dict(zip(tensors, backward(tape, loss, list(tensors.values())))), tape.signs
        return float(loss.value), tape.signs

    grads, _ = run(arrays, True)
    keys = sorted(k for k in arrays if grads[k] is not None)
    sizes = np.array([arrays[k].size for k in keys])
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])
    rng = np.random.default_rng(seed)
    if max_coords is not None and total > max_coords:
        coords = np.sort(rng.choice(total, size=max_coords, replace=False))
    else:
        coords = np.arange(total)

    max_rel = 0.0
    for gc in coords:
        which = int(np.searchsorted(offsets, gc, side="right") - 1)
        key = keys[which]
        local = int(gc - offsets[which])
        probes, sigs = [], []
        for delta in (eps, -eps):
            pert = arrays[key].copy()
            pert.flat[local] += delta
            val, sg = run({**arrays, key: pert}, False)
            probes.append(val)
            sigs.append(sg)
        if sigs[0] != sigs[1]:
            continue  # kink coordinate
        fd = (probes[0] - probes[1]) / (2.0 * eps)
        noise = np.finfo(np.float64).eps * max(abs(probes[0]), abs(probes[1])) / eps
        a = float(grads[key].flat[local])
        rel = max(0.0, abs(a - fd) - noise) / (abs(a) + abs(fd) + 1e-12)
        max_rel = max(max_rel, rel)
    return max_rel
