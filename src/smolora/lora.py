"""Low-rank adapter blocks and the mixture layers built from them.

Three adapter designs share a frozen base weight W0:

* a single LoRA block (sequential fine-tuning control),
* a token-wise mixture of blocks with one router (MoLoRA control),
* the separable mixture: one bank gated per instance on the averaged layer
  input, a second bank gated on the instruction embedding, with the two bank
  outputs fused per position by trainable importance scores.

Blocks initialize with B = 0 so a fresh layer is exactly W0 @ x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .routing import RoutingTrace, route_instance, route_instruction, selected_from_gate
from .tensor import Matrix, Tape, add, matmul, softmax_back, softmax_columns


@dataclass
class LoRABlock:
    """Rank-r update B @ A with A (r x d) and B (k_out x r)."""

    A: Matrix
    B: Matrix
    rank: int

    def __post_init__(self):
        if self.A.rows != self.rank or self.B.cols != self.rank:
            raise ShapeError(
                f"rank {self.rank} inconsistent with A {self.A.rows}x{self.A.cols}, "
                f"B {self.B.rows}x{self.B.cols}"
            )
        d, k_out = self.A.cols, self.B.rows
        if self.rank > min(d, k_out) / 2:
            raise ShapeError(f"rank {self.rank} too large for {k_out}x{d} base (max {min(d, k_out) // 2})")


def init_lora_block(d: int, k_out: int, r: int, rng: np.random.Generator) -> LoRABlock:
    """A ~ N(0, 1/d), B = 0, so the initial update is identically zero."""
    A = Matrix._wrap(rng.normal(0.0, np.sqrt(1.0 / d), size=(r, d)))
    B = Matrix.zeros(k_out, r)
    return LoRABlock(A=A, B=B, rank=r)


def lora_apply(block: LoRABlock, x: Matrix, tape: Tape | None = None) -> Matrix:
    """B @ (A @ x); the k_out x d product is never materialized."""
    return matmul(block.B, matmul(block.A, x, tape), tape)


def _named_blocks(prefix: str, blocks: list[LoRABlock]) -> dict[str, Matrix]:
    """Each block's A then B, named prefix{i}.A and prefix{i}.B."""
    return {f"{prefix}{i}.{n}": m for i, b in enumerate(blocks) for n, m in (("A", b.A), ("B", b.B))}


@dataclass
class MoLoRALayer:
    """Frozen W0 plus N blocks gated token-wise by a single router."""

    W0: Matrix
    blocks: list[LoRABlock]
    router: Matrix
    top_k: int

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("MoLoRALayer needs at least one block")
        if not 1 <= self.top_k <= len(self.blocks):
            raise ValueError(f"top_k {self.top_k} out of range for {len(self.blocks)} blocks")
        if self.router.rows != len(self.blocks) or self.router.cols != self.W0.cols:
            raise ShapeError(
                f"router {self.router.rows}x{self.router.cols} inconsistent with "
                f"{len(self.blocks)} blocks over {self.W0.cols} inputs"
            )
        if len({b.rank for b in self.blocks}) != 1:
            raise ShapeError("blocks must share one rank to be stacked")

    def named(self) -> dict[str, Matrix]:
        """Trainable matrices by checkpoint name, in checkpoint order."""
        return {"router": self.router, **_named_blocks("block", self.blocks)}

    def trainable(self) -> list[Matrix]:
        return list(self.named().values())


def molora_forward(layer: MoLoRALayer, x: Matrix, tape: Tape | None = None) -> Matrix:
    """W0 @ x plus the gate-weighted block updates, gated per token.

    Each column of x routes independently through :func:`route_instruction`'s
    gate, computed tape-free; the blocks run as one bank with one gate column
    per input column, and the adapter update is one tape record whose
    backward pushes gradients into every selected block, the router and x.
    """
    if x.rows != layer.W0.cols:
        raise ShapeError(f"input rows {x.rows} != layer input dim {layer.W0.cols}")
    gate = route_instruction(layer.router, x, layer.top_k).a
    delta, bank_back = _bank(layer.blocks, gate, x.a, 1)
    update = Matrix._wrap(delta)
    if tape is not None:
        push = tape._push
        need_x = tape._needs(x)

        def back(g):
            dx, d_gate = bank_back(g, push, need_x)
            dl = softmax_back(gate, d_gate)
            push(layer.router, dl @ x.a.T)
            if need_x:
                push(x, dx + layer.router.a.T @ dl)

        tape._record(update, back)
    return add(matmul(layer.W0, x, tape), update, tape)


@dataclass
class SMoLoRALayer:
    """Frozen W0 with separable banks, dual routers, and fusion importances."""

    W0: Matrix
    vu_blocks: list[LoRABlock]
    if_blocks: list[LoRABlock]
    R_vu: Matrix
    R_if: Matrix
    I_vu: Matrix
    I_if: Matrix
    top_k: int
    layer_id: int = 0

    def __post_init__(self):
        if not self.vu_blocks or not self.if_blocks:
            raise ValueError("both banks need at least one block")
        if self.top_k > min(len(self.vu_blocks), len(self.if_blocks)):
            raise ValueError(
                f"top_k {self.top_k} exceeds bank sizes "
                f"{len(self.vu_blocks)}/{len(self.if_blocks)}"
            )
        k_out = self.W0.rows
        if self.I_vu.shape != (1, k_out) or self.I_if.shape != (1, k_out):
            raise ShapeError(f"importance matrices must be 1x{k_out}")
        for bank in (self.vu_blocks, self.if_blocks):
            if len({b.rank for b in bank}) != 1:
                raise ShapeError("blocks of one bank must share one rank to be stacked")

    def named(self) -> dict[str, Matrix]:
        """Trainable matrices by checkpoint name, in checkpoint order."""
        return {
            "R_vu": self.R_vu,
            "R_if": self.R_if,
            "I_vu": self.I_vu,
            "I_if": self.I_if,
            **_named_blocks("vu", self.vu_blocks),
            **_named_blocks("if", self.if_blocks),
        }

    def trainable(self) -> list[Matrix]:
        return list(self.named().values())


def adaptive_fusion(
    x_vu: Matrix,
    x_if: Matrix,
    I_vu: Matrix,
    I_if: Matrix,
) -> tuple[Matrix, Matrix, Matrix]:
    """Per-position convex combination of the two bank outputs.

    Scores u = I_vu @ x_vu and v = I_if @ x_if (1 x s each) pass through a
    pairwise softmax at every column, yielding weights alpha, beta with
    alpha_t + beta_t = 1; the result is alpha*x_vu + beta*x_if column-wise.
    """
    if x_vu.shape != x_if.shape:
        raise ShapeError(f"bank outputs differ: {x_vu.shape} vs {x_if.shape}")
    ab = softmax_columns(Matrix._wrap(np.vstack([I_vu.a @ x_vu.a, I_if.a @ x_if.a]))).a
    alpha, beta = ab[:1], ab[1:]
    fused = Matrix._wrap(alpha * x_vu.a + beta * x_if.a)
    return fused, Matrix._adopt(alpha), Matrix._adopt(beta)


def _bank(blocks: list[LoRABlock], gate: np.ndarray, x: np.ndarray, s: int):
    """One bank in two matmuls, B_cat @ (G * (A_stack @ x)), and its backward rule.

    Gate entry (i, j) scales block i's rank rows over instance j's s columns.
    The rule takes the gradient of the bank output, a push function and
    whether x needs a gradient; it pushes into the A and B of every block
    some instance selected and returns the gradients of x (None when not
    needed) and of the gate. Unselected entries are exact zeros, so a block
    that no instance selected gets no push at all.
    """
    r = blocks[0].rank
    a_stack = np.vstack([b.A.a for b in blocks])
    b_cat = np.hstack([b.B.a for b in blocks])
    full = np.repeat(np.repeat(gate, r, axis=0), s, axis=1)
    z = a_stack @ x
    zg = full * z
    out = b_cat @ zg

    def back(g: np.ndarray, push, need_x: bool) -> tuple[np.ndarray | None, np.ndarray]:
        dzg = b_cat.T @ g
        dz = dzg * full
        d_a = dz @ x.T
        d_b = g @ zg.T
        for i in np.flatnonzero(gate.max(axis=1) > 0.0):
            blk, lo, hi = blocks[i], i * r, (i + 1) * r
            push(blk.A, d_a[lo:hi])
            push(blk.B, d_b[:, lo:hi])
        d_gate = (dzg * z).reshape(len(blocks), r, gate.shape[1], s).sum(axis=(1, 3))
        return (a_stack.T @ dz if need_x else None), d_gate

    return out, back


def smolora_delta(
    layer: SMoLoRALayer,
    x: Matrix,
    instr_emb: Matrix,
    tape: Tape | None = None,
    traces: list[RoutingTrace] | None = None,
) -> Matrix:
    """The fused adapter update (everything except W0 @ x), recorded as one tape op.

    instr_emb holds one embedding column per instance, and x the instances'
    columns in order, x.cols // instr_emb.cols of them each. Gates, banks and
    fusion run tape-free; the recorded op's backward pushes gradients into
    both routers, every selected block, both importance rows, and x and
    instr_emb when the tape reads their gradients. When `traces` is given,
    one RoutingTrace per instance is appended to it.
    """
    if x.rows != layer.W0.cols:
        raise ShapeError(f"input rows {x.rows} != layer input dim {layer.W0.cols}")
    if instr_emb.rows != layer.R_if.cols:
        raise ShapeError(
            f"instruction embeddings must have {layer.R_if.cols} rows, got "
            f"{instr_emb.rows}x{instr_emb.cols}"
        )
    n = instr_emb.cols
    if x.cols % n:
        raise ShapeError(f"{x.cols} input columns do not split over {n} instances")
    s = x.cols // n
    vu_gate = route_instance(layer.R_vu, x, layer.top_k, instances=n).a
    if_gate = route_instruction(layer.R_if, instr_emb, layer.top_k).a
    x_vu, vu_back = _bank(layer.vu_blocks, vu_gate, x.a, s)
    x_if, if_back = _bank(layer.if_blocks, if_gate, x.a, s)
    fused, alpha, beta = adaptive_fusion(
        Matrix._wrap(x_vu), Matrix._wrap(x_if), layer.I_vu, layer.I_if
    )
    if tape is not None:
        push = tape._push
        need_x, need_emb = tape._needs(x), tape._needs(instr_emb)
        a, b = alpha.a, beta.a
        ab = np.vstack([a, b])

        def back(g):
            # Fusion: a pairwise softmax of u = I_vu @ x_vu and v = I_if @ x_if.
            d_ab = np.vstack([np.sum(g * x_vu, axis=0), np.sum(g * x_if, axis=0)])
            d_uv = softmax_back(ab, d_ab)
            du, dv = d_uv[:1], d_uv[1:]
            push(layer.I_vu, du @ x_vu.T)
            push(layer.I_if, dv @ x_if.T)
            dx_vu, d_vu_gate = vu_back(g * a + layer.I_vu.a.T @ du, push, need_x)
            dx_if, d_if_gate = if_back(g * b + layer.I_if.a.T @ dv, push, need_x)
            # Routers: instance logits from the per-instance input means,
            # instruction logits from the embeddings.
            dl_vu = softmax_back(vu_gate, d_vu_gate)
            dl_if = softmax_back(if_gate, d_if_gate)
            pooled = x.a.reshape(x.rows, n, s).mean(axis=2)
            push(layer.R_vu, dl_vu @ pooled.T)
            push(layer.R_if, dl_if @ instr_emb.a.T)
            if need_x:
                push(x, dx_vu + dx_if + np.repeat((layer.R_vu.a.T @ dl_vu) / s, s, axis=1))
            if need_emb:
                push(instr_emb, layer.R_if.a.T @ dl_if)

        tape._record(fused, back)
    if traces is not None:
        alpha_means = alpha.a.reshape(n, -1).mean(axis=1)
        beta_means = beta.a.reshape(n, -1).mean(axis=1)
        traces.extend(
            RoutingTrace(
                layer_id=layer.layer_id,
                vu_selected=selected_from_gate(vu_gate[:, j]),
                if_selected=selected_from_gate(if_gate[:, j]),
                alpha_mean=float(alpha_means[j]),
                beta_mean=float(beta_means[j]),
            )
            for j in range(n)
        )
    return fused


def smolora_forward(
    layer: SMoLoRALayer,
    x: Matrix,
    instr_emb: Matrix,
    tape: Tape | None = None,
    traces: list[RoutingTrace] | None = None,
) -> Matrix:
    """Full layer output W0 @ x + fused bank update; traces as in smolora_delta."""
    delta = smolora_delta(layer, x, instr_emb, tape, traces)
    return add(matmul(layer.W0, x, tape), delta, tape)


def init_smolora(
    d: int,
    k_out: int,
    M: int,
    N_minus_M: int,
    r: int,
    e: int,
    top_k: int,
    seed: int | np.random.Generator,
    layer_id: int = 0,
) -> SMoLoRALayer:
    """Seeded layer construction matching the default configuration.

    W0 and A matrices draw from N(0, 1/d), routers from N(0, 1/fan_in),
    importance rows from N(0, 0.02^2); all B matrices start at zero. A
    Generator passed as `seed` is drawn from in place.
    """
    for name, val in (("d", d), ("k_out", k_out), ("M", M), ("N_minus_M", N_minus_M), ("r", r), ("e", e)):
        if val < 1:
            raise ValueError(f"{name} must be positive, got {val}")
    if not 1 <= top_k <= min(M, N_minus_M):
        raise ValueError(f"top_k {top_k} out of range for banks of {M} and {N_minus_M}")
    rng = np.random.default_rng(seed)
    W0 = Matrix._wrap(rng.normal(0.0, np.sqrt(1.0 / d), size=(k_out, d)))
    vu_blocks = [init_lora_block(d, k_out, r, rng) for _ in range(M)]
    if_blocks = [init_lora_block(d, k_out, r, rng) for _ in range(N_minus_M)]
    R_vu = Matrix._wrap(rng.normal(0.0, np.sqrt(1.0 / d), size=(M, d)))
    R_if = Matrix._wrap(rng.normal(0.0, np.sqrt(1.0 / e), size=(N_minus_M, e)))
    I_vu = Matrix._wrap(rng.normal(0.0, 0.02, size=(1, k_out)))
    I_if = Matrix._wrap(rng.normal(0.0, 0.02, size=(1, k_out)))
    return SMoLoRALayer(
        W0=W0,
        vu_blocks=vu_blocks,
        if_blocks=if_blocks,
        R_vu=R_vu,
        R_if=R_if,
        I_vu=I_vu,
        I_if=I_if,
        top_k=top_k,
        layer_id=layer_id,
    )


def init_molora(
    d: int, k_out: int, N: int, r: int, top_k: int, seed: int | np.random.Generator
) -> MoLoRALayer:
    """Seeded token-wise mixture layer with N blocks; a Generator seed is drawn from in place."""
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    if not 1 <= top_k <= N:
        raise ValueError(f"top_k {top_k} out of range for {N} blocks")
    rng = np.random.default_rng(seed)
    W0 = Matrix._wrap(rng.normal(0.0, np.sqrt(1.0 / d), size=(k_out, d)))
    blocks = [init_lora_block(d, k_out, r, rng) for _ in range(N)]
    router = Matrix._wrap(rng.normal(0.0, np.sqrt(1.0 / d), size=(N, d)))
    return MoLoRALayer(W0=W0, blocks=blocks, router=router, top_k=top_k)
