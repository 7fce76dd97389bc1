"""Low-rank adapter blocks and the mixture layers built from them.

Three adapter designs share a frozen base weight W0:

* a single LoRA block (sequential fine-tuning control),
* a token-wise mixture of blocks with one router (MoLoRA control),
* the separable mixture: one bank gated per instance on the averaged layer
  input, a second bank gated on the instruction embedding, with the two bank
  outputs fused per position by trainable importance scores.

Blocks initialize with B = 0 so a fresh layer is exactly W0 @ x.

Each layer is one function on arrays. Gates, banks and fusion are plain
numpy, and the layer output W0 @ x + update is one tape record whose
hand-written backward pushes into the trainable matrices and the layer
input. A bank of N rank-r blocks is stored bank-major: the blocks' A
matrices stacked (N*r x d) and their B matrices side by side (k_out x N*r),
each block's A and B being submatrices of the two. A bank is then two
matmuls, and its gradient two whole arrays.

A top-1 gate is one-hot whatever its logits, so its gradient is exactly 0;
at top-1 the backward computes no router gradient at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .routing import RoutingTrace, route_instance, route_instruction, selected_from_gate
from .tensor import Matrix, SubMatrix, Tape, softmax_back


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


def lora_apply(
    block: LoRABlock, x: Matrix, tape: Tape | None = None, base: Matrix | None = None
) -> Matrix:
    """B @ (A @ x), plus base @ x when a frozen base weight is given, as one tape record.

    The k_out x d product is never materialized. The backward pushes into A,
    B and x: A.T @ dz first, then base.T @ g.
    """
    A, B, xa = block.A.a, block.B.a, x.a
    if x.rows != A.shape[1] or (base is not None and base.shape != (B.shape[0], x.rows)):
        raise ShapeError(f"block {B.shape[0]}x{A.shape[1]} does not map {x.rows}x{x.cols} input")
    z = A @ xa
    out = Matrix._wrap(B @ z if base is None else base.a @ xa + B @ z)
    if tape is not None:
        push = tape._push
        need_x = tape._needs(x)

        def back(g):
            dz = B.T @ g
            push(block.B, g @ z.T)
            push(block.A, dz @ xa.T)
            if need_x:
                push(x, A.T @ dz)
                if base is not None:
                    push(x, base.a.T @ g)

        tape._record(out, back)
    return out


def _named_blocks(prefix: str, blocks: list[LoRABlock]) -> dict[str, Matrix]:
    """Each block's A then B, named prefix{i}.A and prefix{i}.B."""
    return {f"{prefix}{i}.{n}": m for i, b in enumerate(blocks) for n, m in (("A", b.A), ("B", b.B))}


@dataclass
class LoRABank:
    """Blocks of one rank stored bank-major: A (N*r x d) and B (k_out x N*r).

    blocks[i] reads and writes rows i*r:(i+1)*r of A and the same columns of B.
    """

    A: Matrix
    B: Matrix
    rank: int
    blocks: list[LoRABlock] = field(init=False, repr=False)

    def __post_init__(self):
        A, B, r = self.A, self.B, self.rank
        if r < 1 or A.rows % r or B.cols != A.rows:
            raise ShapeError(
                f"A {A.rows}x{A.cols} and B {B.rows}x{B.cols} do not split into rank-{r} blocks"
            )
        self.blocks = [
            LoRABlock(SubMatrix(A, np.s_[lo : lo + r, :]), SubMatrix(B, np.s_[:, lo : lo + r]), r)
            for lo in range(0, A.rows, r)
        ]


def init_lora_bank(d: int, k_out: int, n: int, r: int, rng: np.random.Generator) -> LoRABank:
    """n blocks drawn as n calls of init_lora_block would draw them, stored bank-major."""
    A = Matrix._wrap(rng.normal(0.0, np.sqrt(1.0 / d), size=(n * r, d)))
    return LoRABank(A=A, B=Matrix.zeros(k_out, n * r), rank=r)


def _bank(bank: LoRABank, gate: np.ndarray, x: np.ndarray, s: int):
    """One bank in two matmuls, B @ (G * (A @ x)), and its backward rule.

    Gate entry (i, j) scales block i's rank rows over instance j's s columns.
    The rule takes the gradient of the bank output, a push function and
    whether x and the gate need gradients; it pushes the gradients of the
    bank's A and B whole and returns those of x and of the gate (None where
    not needed). A block that no instance selected gets zeros.
    """
    r = bank.rank
    a_stack, b_cat = bank.A.a, bank.B.a
    full = np.repeat(np.repeat(gate, r, axis=0), s, axis=1)
    z = a_stack @ x
    zg = full * z
    out = b_cat @ zg

    def back(g: np.ndarray, push, need_x: bool, need_gate: bool):
        dzg = b_cat.T @ g
        dz = dzg * full
        push(bank.A, dz @ x.T)
        push(bank.B, g @ zg.T)
        dx = a_stack.T @ dz if need_x else None
        if not need_gate:
            return dx, None
        return dx, (dzg * z).reshape(gate.shape[0], r, gate.shape[1], s).sum(axis=(1, 3))

    return out, back


@dataclass
class MoLoRALayer:
    """Frozen W0 plus a bank of N blocks gated token-wise by a single router."""

    W0: Matrix
    bank: LoRABank
    router: Matrix
    top_k: int

    def __post_init__(self):
        n = len(self.blocks)
        if not 1 <= self.top_k <= n:
            raise ValueError(f"top_k {self.top_k} out of range for {n} blocks")
        if self.router.shape != (n, self.W0.cols):
            raise ShapeError(
                f"router {self.router.rows}x{self.router.cols} inconsistent with "
                f"{n} blocks over {self.W0.cols} inputs"
            )

    @property
    def blocks(self) -> list[LoRABlock]:
        return self.bank.blocks

    def named(self) -> dict[str, Matrix]:
        """Trainable matrices by checkpoint name, in checkpoint order."""
        return {"router": self.router, **_named_blocks("block", self.blocks)}

    def trainable(self) -> list[Matrix]:
        return list(self.named().values())


def molora_forward(layer: MoLoRALayer, x: Matrix, tape: Tape | None = None) -> Matrix:
    """W0 @ x plus the gate-weighted block updates, gated per token, as one tape record.

    Each column of x routes independently through :func:`route_instruction`'s
    gate, and the bank runs with one gate column per input column. The
    backward pushes into the bank, the router (above top-1) and x.
    """
    if x.rows != layer.W0.cols:
        raise ShapeError(f"input rows {x.rows} != layer input dim {layer.W0.cols}")
    xa, W0 = x.a, layer.W0.a
    gate = route_instruction(layer.router.a, xa, layer.top_k)
    delta, bank_back = _bank(layer.bank, gate, xa, 1)
    out = Matrix._wrap(W0 @ xa + delta)
    if tape is not None:
        push = tape._push
        need_x, routed = tape._needs(x), layer.top_k > 1

        def back(g):
            dx, d_gate = bank_back(g, push, need_x, routed)
            if routed:
                dl = softmax_back(gate, d_gate)
                push(layer.router, dl @ xa.T)
                if need_x:
                    dx = dx + layer.router.a.T @ dl
            if need_x:
                push(x, W0.T @ g)
                push(x, dx)

        tape._record(out, back)
    return out


@dataclass
class SMoLoRALayer:
    """Frozen W0 with separable banks, dual routers, and fusion importances."""

    W0: Matrix
    vu_bank: LoRABank
    if_bank: LoRABank
    R_vu: Matrix
    R_if: Matrix
    I_vu: Matrix
    I_if: Matrix
    top_k: int
    layer_id: int = 0

    def __post_init__(self):
        if self.top_k > min(len(self.vu_blocks), len(self.if_blocks)):
            raise ValueError(
                f"top_k {self.top_k} exceeds bank sizes "
                f"{len(self.vu_blocks)}/{len(self.if_blocks)}"
            )
        k_out = self.W0.rows
        if self.I_vu.shape != (1, k_out) or self.I_if.shape != (1, k_out):
            raise ShapeError(f"importance matrices must be 1x{k_out}")

    @property
    def vu_blocks(self) -> list[LoRABlock]:
        return self.vu_bank.blocks

    @property
    def if_blocks(self) -> list[LoRABlock]:
        return self.if_bank.blocks

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
    x_vu: np.ndarray,
    x_if: np.ndarray,
    I_vu: np.ndarray,
    I_if: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-position convex combination of the two bank outputs.

    Scores u = I_vu @ x_vu and v = I_if @ x_if (1 x s each) pass through a
    pairwise softmax at every column, yielding weights alpha, beta with
    alpha_t + beta_t = 1; the result is alpha*x_vu + beta*x_if column-wise.
    Returns the result, alpha and beta.
    """
    if x_vu.shape != x_if.shape:
        raise ShapeError(f"bank outputs differ: {x_vu.shape} vs {x_if.shape}")
    uv = np.concatenate([I_vu @ x_vu, I_if @ x_if])
    e = np.exp(uv - uv.max(axis=0))
    ab = e / e.sum(axis=0)
    alpha, beta = ab[:1], ab[1:]
    return alpha * x_vu + beta * x_if, alpha, beta


def smolora_forward(
    layer: SMoLoRALayer,
    x: Matrix,
    instr_emb: Matrix,
    tape: Tape | None = None,
    traces: list[RoutingTrace] | None = None,
) -> Matrix:
    """The layer output W0 @ x + the fused update of both banks, as one tape record.

    instr_emb holds one embedding column per instance, and x the instances'
    columns in order, x.cols // instr_emb.cols of them each. The backward
    pushes into both banks, both importance rows, both routers (above
    top-1), and x and instr_emb when the tape reads their gradients. When
    `traces` is given, one RoutingTrace per instance is appended to it.
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
    xa, emb, W0 = x.a, instr_emb.a, layer.W0.a
    vu_gate = route_instance(layer.R_vu.a, xa, layer.top_k, n)
    if_gate = route_instruction(layer.R_if.a, emb, layer.top_k)
    x_vu, vu_back = _bank(layer.vu_bank, vu_gate, xa, s)
    x_if, if_back = _bank(layer.if_bank, if_gate, xa, s)
    fused, alpha, beta = adaptive_fusion(x_vu, x_if, layer.I_vu.a, layer.I_if.a)
    out = Matrix._wrap(W0 @ xa + fused)
    if tape is not None:
        push = tape._push
        need_x, need_emb, routed = tape._needs(x), tape._needs(instr_emb), layer.top_k > 1
        ab = np.concatenate([alpha, beta])

        def back(g):
            # Fusion: a pairwise softmax of u = I_vu @ x_vu and v = I_if @ x_if.
            d_ab = np.concatenate([(g * x_vu).sum(axis=0, keepdims=True),
                                   (g * x_if).sum(axis=0, keepdims=True)])
            d_uv = softmax_back(ab, d_ab)
            du, dv = d_uv[:1], d_uv[1:]
            push(layer.I_vu, du @ x_vu.T)
            push(layer.I_if, dv @ x_if.T)
            dx_vu, d_vu_gate = vu_back(g * alpha + layer.I_vu.a.T @ du, push, need_x, routed)
            dx_if, d_if_gate = if_back(g * beta + layer.I_if.a.T @ dv, push, need_x, routed)
            dx = dx_vu + dx_if if need_x else None
            if routed:
                # Instance logits from the per-instance input means,
                # instruction logits from the embeddings.
                dl_vu = softmax_back(vu_gate, d_vu_gate)
                dl_if = softmax_back(if_gate, d_if_gate)
                push(layer.R_vu, dl_vu @ xa.reshape(x.rows, n, s).mean(axis=2).T)
                push(layer.R_if, dl_if @ emb.T)
                if need_x:
                    dx = dx + np.repeat((layer.R_vu.a.T @ dl_vu) / s, s, axis=1)
                if need_emb:
                    push(instr_emb, layer.R_if.a.T @ dl_if)
            if need_x:
                push(x, W0.T @ g)
                push(x, dx)

        tape._record(out, back)
    if traces is not None:
        alpha_means = alpha.reshape(n, -1).mean(axis=1)
        beta_means = beta.reshape(n, -1).mean(axis=1)
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
    return out


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
    vu_bank = init_lora_bank(d, k_out, M, r, rng)
    if_bank = init_lora_bank(d, k_out, N_minus_M, r, rng)
    R_vu = Matrix._wrap(rng.normal(0.0, np.sqrt(1.0 / d), size=(M, d)))
    R_if = Matrix._wrap(rng.normal(0.0, np.sqrt(1.0 / e), size=(N_minus_M, e)))
    I_vu = Matrix._wrap(rng.normal(0.0, 0.02, size=(1, k_out)))
    I_if = Matrix._wrap(rng.normal(0.0, 0.02, size=(1, k_out)))
    return SMoLoRALayer(W0, vu_bank, if_bank, R_vu, R_if, I_vu, I_if, top_k, layer_id)


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
    bank = init_lora_bank(d, k_out, N, r, rng)
    router = Matrix._wrap(rng.normal(0.0, np.sqrt(1.0 / d), size=(N, d)))
    return MoLoRALayer(W0=W0, bank=bank, router=router, top_k=top_k)
