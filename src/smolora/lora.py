"""Low-rank adapter blocks and the mixture layers built from them.

Three adapter designs share a frozen base weight W0:

* a single LoRA block, a bank of one (sequential fine-tuning control),
* a token-wise mixture of blocks with one router (MoLoRA control),
* the separable mixture: one bank gated per instance on the averaged layer
  input, a second bank gated on the instruction embedding, with the two bank
  outputs fused per position by trainable importance scores.

Blocks initialize with B = 0 so a fresh layer is exactly W0 @ x.

Each layer is one function on numpy arrays, from its input to its output
W0 @ x + update; a layer's trainable matrices are `tensor.Matrix`
parameters, and W0 is a plain frozen array. Gates, banks and fusion are
plain numpy, and the layer is one tape record whose hand-written rule
writes the trainable matrices' gradients into their views of the gradient
buffer and returns the layer input's. A bank of N rank-r blocks is stored
bank-major (:class:`LoRABank`): the blocks' A matrices stacked (N*r x d)
and their B matrices side by side (k_out x N*r). A bank is then two
matmuls, and its gradient two whole arrays; a block's A and B are slices
of the two, which the checkpoint names block by block.

A forward without a tape keeps nothing for a backward: it builds no rule,
holds no intermediate, and writes in place only into arrays it allocated
itself (the gated A @ x, the bank outputs scaled by the fusion weights, the
base product the update is added to), never into its inputs, the
parameters or the routing arrays it returns. The arithmetic is the taped
forward's, so both give the same bits.

A top-1 gate is one-hot whatever its logits, so its gradient is exactly 0;
at top-1 the rule computes no router gradient and writes zeros. Given a
list, the separable layer appends a `routing.LayerRouting` of the gate and
fusion arrays it computed, which costs no copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .routing import LayerRouting, route_instance, route_instruction
from .tensor import Matrix, Tape, check_finite, repeat_columns, require_grads, run_means, run_sums, softmax_back


@dataclass
class LoRABank:
    """N rank-r blocks stored bank-major: A (N*r x d) and B (k_out x N*r).

    Block i is rows i*r:(i+1)*r of A and the same columns of B, and its
    update is the rank-r B_i @ A_i, with r at most min(d, k_out) / 2.
    """

    A: Matrix
    B: Matrix
    rank: int

    def __post_init__(self):
        (rows, d), (k_out, cols), r = self.A.shape, self.B.shape, self.rank
        if r < 1 or rows % r or cols != rows:
            raise ShapeError(f"A {rows}x{d} and B {k_out}x{cols} do not split into rank-{r} blocks")
        if r > min(d, k_out) / 2:
            raise ShapeError(f"rank {r} too large for {k_out}x{d} base (max {min(d, k_out) // 2})")

    def __len__(self) -> int:
        return self.A.shape[0] // self.rank

    def named(self, prefix: str) -> dict[str, np.ndarray]:
        """Each block's A then B, named prefix{i}.A and prefix{i}.B, as views of the bank's."""
        A, B, r = self.A.a, self.B.a, self.rank
        out = {}
        for i in range(len(self)):
            out[f"{prefix}{i}.A"] = A[i * r : (i + 1) * r]
            out[f"{prefix}{i}.B"] = B[:, i * r : (i + 1) * r]
        return out


def init_lora_bank(d: int, k_out: int, n: int, r: int, rng: np.random.Generator) -> LoRABank:
    """n blocks with A ~ N(0, 1/d), drawn block after block, and B = 0, so the
    initial update is identically zero."""
    A = Matrix(rng.normal(0.0, np.sqrt(1.0 / d), size=(n * r, d)))
    return LoRABank(A=A, B=Matrix(np.zeros((k_out, n * r))), rank=r)


def lora_apply(bank: LoRABank, x: np.ndarray, base: np.ndarray, tape: Tape | None = None) -> np.ndarray:
    """base @ x + B @ (A @ x), with a frozen base weight, as one tape record.

    seqlora's kernel: its bank holds one block. The k_out x d product is
    never materialized. The rule writes the gradients of A and B and
    returns x's: A.T @ dz first, then base.T @ g.
    """
    A, B = bank.A.a, bank.B.a
    if x.shape[0] != A.shape[1] or base.shape != (B.shape[0], x.shape[0]):
        raise ShapeError(
            f"block {B.shape[0]}x{A.shape[1]} does not map {x.shape[0]}x{x.shape[1]} input"
        )
    z = A @ x
    y = base @ x
    y += B @ z
    check_finite(y)
    if tape is not None:
        require_grads(bank.A, bank.B)
        gA, gB, need_x = bank.A.grad, bank.B.grad, bool(tape._ops)

        def back(g, dx=None):
            dz = B.T @ g
            np.matmul(g, z.T, out=gB)
            np.matmul(dz, x.T, out=gA)
            if need_x:
                dx = _plus(_plus(dx, A.T @ dz), base.T @ g)
            return dx

        tape._ops.append(back)
    return y


def _plus(acc: np.ndarray | None, term: np.ndarray) -> np.ndarray:
    """acc + term, or term when nothing has accumulated yet."""
    return term if acc is None else acc + term


def _bank(bank: LoRABank, gate: np.ndarray, x: np.ndarray, s: int, taped: bool):
    """One bank in two matmuls, B @ (G * (A @ x)), and its backward rule when taped.

    Gate entry (i, j) scales block i's rank rows over instance j's s columns.
    Untaped, the gate scales A @ x, a new array, in place and nothing is
    kept: the rule is None. Taped, the rule takes the gradient of the bank output and whether
    x and the gate need gradients; it writes the gradients of the bank's A
    and B whole into their views and returns those of x and of the gate
    (None where not needed). A block that no instance selected gets zeros.
    """
    r = bank.rank
    a_stack, b_cat = bank.A.a, bank.B.a
    full = repeat_columns(gate, s).repeat(r, axis=0)
    z = a_stack @ x
    if not taped:
        z *= full
        return b_cat @ z, None
    zg = full * z
    out = b_cat @ zg

    def back(g: np.ndarray, need_x: bool, need_gate: bool):
        dzg = b_cat.T @ g
        dz = dzg * full
        np.matmul(dz, x.T, out=bank.A.grad)
        np.matmul(g, zg.T, out=bank.B.grad)
        dx = a_stack.T @ dz if need_x else None
        if not need_gate:
            return dx, None
        # Each instance's s columns, then each block's r rows, summed in order.
        runs = run_sums(dzg * z, s).reshape(gate.shape[0], r, gate.shape[1])
        return dx, np.add.reduce(runs, axis=1)

    return out, back


@dataclass
class MoLoRALayer:
    """Frozen W0 plus a bank of N blocks gated token-wise by a single router."""

    W0: np.ndarray
    bank: LoRABank
    router: Matrix
    top_k: int

    def __post_init__(self):
        n = len(self.bank)
        if not 1 <= self.top_k <= n:
            raise ValueError(f"top_k {self.top_k} out of range for {n} blocks")
        if self.router.shape != (n, self.W0.shape[1]):
            raise ShapeError(
                f"router {self.router.shape[0]}x{self.router.shape[1]} inconsistent with "
                f"{n} blocks over {self.W0.shape[1]} inputs"
            )

    def trainable(self) -> list[Matrix]:
        return [self.router, self.bank.A, self.bank.B]

    def named(self) -> dict[str, np.ndarray]:
        """Trainable arrays by checkpoint name, in checkpoint order."""
        return {"router": self.router.a, **self.bank.named("block")}


def molora_forward(layer: MoLoRALayer, x: np.ndarray, tape: Tape | None = None) -> np.ndarray:
    """W0 @ x plus the gate-weighted block updates, gated per token, as one tape record.

    Each column of x routes independently through :func:`route_instruction`'s
    gate, and the bank runs with one gate column per input column. The rule
    writes the gradients of the bank and the router (zeros at top-1) and
    returns x's.
    """
    W0 = layer.W0
    if x.shape[0] != W0.shape[1]:
        raise ShapeError(f"input rows {x.shape[0]} != layer input dim {W0.shape[1]}")
    gate = route_instruction(layer.router.a, x, layer.top_k)
    delta, bank_back = _bank(layer.bank, gate, x, 1, tape is not None)
    y = W0 @ x
    y += delta
    check_finite(y)
    if tape is not None:
        require_grads(*layer.trainable())
        need_x, routed, g_router = bool(tape._ops), layer.top_k > 1, layer.router.grad

        def back(g, dx=None):
            dx_bank, d_gate = bank_back(g, need_x, routed)
            if routed:
                dl = softmax_back(gate, d_gate)
                np.matmul(dl, x.T, out=g_router)
                if need_x:
                    dx_bank = dx_bank + layer.router.a.T @ dl
            else:
                g_router[...] = 0.0
            if need_x:
                dx = _plus(_plus(dx, W0.T @ g), dx_bank)
            return dx

        tape._ops.append(back)
    return y


@dataclass
class SMoLoRALayer:
    """Frozen W0 with separable banks, dual routers, and fusion importances."""

    W0: np.ndarray
    vu_bank: LoRABank
    if_bank: LoRABank
    R_vu: Matrix
    R_if: Matrix
    I_vu: Matrix
    I_if: Matrix
    top_k: int

    def __post_init__(self):
        if not 1 <= self.top_k <= min(len(self.vu_bank), len(self.if_bank)):
            raise ValueError(
                f"top_k {self.top_k} out of range for banks of "
                f"{len(self.vu_bank)} and {len(self.if_bank)}"
            )
        k_out = self.W0.shape[0]
        if self.I_vu.shape != (1, k_out) or self.I_if.shape != (1, k_out):
            raise ShapeError(f"importance matrices must be 1x{k_out}")

    def trainable(self) -> list[Matrix]:
        return [self.R_vu, self.R_if, self.I_vu, self.I_if,
                self.vu_bank.A, self.vu_bank.B, self.if_bank.A, self.if_bank.B]

    def named(self) -> dict[str, np.ndarray]:
        """Trainable arrays by checkpoint name, in checkpoint order."""
        return {
            "R_vu": self.R_vu.a,
            "R_if": self.R_if.a,
            "I_vu": self.I_vu.a,
            "I_if": self.I_if.a,
            **self.vu_bank.named("vu"),
            **self.if_bank.named("if"),
        }


def adaptive_fusion(
    x_vu: np.ndarray,
    x_if: np.ndarray,
    I_vu: np.ndarray,
    I_if: np.ndarray,
    overwrite: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-position convex combination of the two bank outputs.

    Scores u = I_vu @ x_vu and v = I_if @ x_if (1 x s each) pass through a
    pairwise softmax at every column, yielding weights alpha, beta with
    alpha_t + beta_t = 1; the result is alpha*x_vu + beta*x_if column-wise.
    Returns the result, alpha and beta. With `overwrite`, for a caller that
    keeps neither bank output, both are scaled in place and the result is
    x_vu itself.
    """
    if x_vu.shape != x_if.shape:
        raise ShapeError(f"bank outputs differ: {x_vu.shape} vs {x_if.shape}")
    u, v = I_vu @ x_vu, I_if @ x_if
    e = np.exp(np.concatenate([u, v]) - np.maximum(u, v))
    ab = e / (e[:1] + e[1:])
    alpha, beta = ab[:1], ab[1:]
    fused = np.multiply(alpha, x_vu, out=x_vu if overwrite else None)
    fused += np.multiply(beta, x_if, out=x_if if overwrite else None)
    return fused, alpha, beta


def smolora_forward(
    layer: SMoLoRALayer,
    x: np.ndarray,
    instr_emb: np.ndarray,
    tape: Tape | None = None,
    routing: list[LayerRouting] | None = None,
) -> np.ndarray:
    """The layer output W0 @ x + the fused update of both banks, as one tape record.

    instr_emb holds one embedding column per instance, and x the instances'
    columns in order, as many for each. The rule writes the gradients of
    both banks, importance rows and routers (zeros at top-1) and returns
    x's; the embeddings, model inputs, take none. When `routing` is given,
    one LayerRouting holding this call's gates and fusion weights is
    appended to it; that takes no copy and no per-instance work.
    """
    W0 = layer.W0
    if x.shape[0] != W0.shape[1]:
        raise ShapeError(f"input rows {x.shape[0]} != layer input dim {W0.shape[1]}")
    if instr_emb.shape[0] != layer.R_if.shape[1]:
        raise ShapeError(
            f"instruction embeddings must have {layer.R_if.shape[1]} rows, got "
            f"{instr_emb.shape[0]}x{instr_emb.shape[1]}"
        )
    n = instr_emb.shape[1]
    if x.shape[1] % n:
        raise ShapeError(f"{x.shape[1]} input columns do not split over {n} instances")
    s = x.shape[1] // n
    vu_gate = route_instance(layer.R_vu.a, x, layer.top_k, n)
    if_gate = route_instruction(layer.R_if.a, instr_emb, layer.top_k)
    taped = tape is not None
    x_vu, vu_back = _bank(layer.vu_bank, vu_gate, x, s, taped)
    x_if, if_back = _bank(layer.if_bank, if_gate, x, s, taped)
    fused, alpha, beta = adaptive_fusion(x_vu, x_if, layer.I_vu.a, layer.I_if.a, overwrite=not taped)
    y = W0 @ x
    y += fused
    check_finite(y)
    if taped:
        R_vu, R_if, I_vu, I_if = layer.R_vu, layer.R_if, layer.I_vu, layer.I_if
        require_grads(*layer.trainable())
        need_x, routed = bool(tape._ops), layer.top_k > 1
        ab = np.concatenate([alpha, beta])

        def back(g, dx=None):
            # Fusion: a pairwise softmax of u = I_vu @ x_vu and v = I_if @ x_if.
            d_ab = np.concatenate([np.add.reduce(g * x_vu, axis=0, keepdims=True),
                                   np.add.reduce(g * x_if, axis=0, keepdims=True)])
            d_uv = softmax_back(ab, d_ab)
            du, dv = d_uv[:1], d_uv[1:]
            np.matmul(du, x_vu.T, out=I_vu.grad)
            np.matmul(dv, x_if.T, out=I_if.grad)
            dx_vu, d_vu_gate = vu_back(g * alpha + I_vu.a.T @ du, need_x, routed)
            dx_if, d_if_gate = if_back(g * beta + I_if.a.T @ dv, need_x, routed)
            dx_banks = dx_vu + dx_if if need_x else None
            if routed:
                # Instance logits from the per-instance input means,
                # instruction logits from the embeddings.
                dl_vu = softmax_back(vu_gate, d_vu_gate)
                dl_if = softmax_back(if_gate, d_if_gate)
                np.matmul(dl_vu, run_means(x, s).T, out=R_vu.grad)
                np.matmul(dl_if, instr_emb.T, out=R_if.grad)
                if need_x:
                    dx_banks = dx_banks + repeat_columns((R_vu.a.T @ dl_vu) / s, s)
            else:
                R_vu.grad[...] = 0.0
                R_if.grad[...] = 0.0
            if need_x:
                dx = _plus(_plus(dx, W0.T @ g), dx_banks)
            return dx

        tape._ops.append(back)
    if routing is not None:
        routing.append(LayerRouting(vu_gate, if_gate, alpha, beta))
    return y


def init_smolora(
    d: int,
    k_out: int,
    M: int,
    N_minus_M: int,
    r: int,
    e: int,
    top_k: int,
    seed: int | np.random.Generator,
) -> SMoLoRALayer:
    """Seeded layer construction matching the default configuration.

    W0 and A matrices draw from N(0, 1/d), routers from N(0, 1/fan_in),
    importance rows from N(0, 0.02^2); all B matrices start at zero. A
    Generator passed as `seed` is drawn from in place.
    """
    rng = np.random.default_rng(seed)
    W0 = rng.normal(0.0, np.sqrt(1.0 / d), size=(k_out, d))
    vu_bank = init_lora_bank(d, k_out, M, r, rng)
    if_bank = init_lora_bank(d, k_out, N_minus_M, r, rng)
    R_vu = Matrix(rng.normal(0.0, np.sqrt(1.0 / d), size=(M, d)))
    R_if = Matrix(rng.normal(0.0, np.sqrt(1.0 / e), size=(N_minus_M, e)))
    I_vu = Matrix(rng.normal(0.0, 0.02, size=(1, k_out)))
    I_if = Matrix(rng.normal(0.0, 0.02, size=(1, k_out)))
    return SMoLoRALayer(W0, vu_bank, if_bank, R_vu, R_if, I_vu, I_if, top_k)


def init_molora(
    d: int, k_out: int, N: int, r: int, top_k: int, seed: int | np.random.Generator
) -> MoLoRALayer:
    """Seeded token-wise mixture layer with N blocks; a Generator seed is drawn from in place."""
    rng = np.random.default_rng(seed)
    W0 = rng.normal(0.0, np.sqrt(1.0 / d), size=(k_out, d))
    bank = init_lora_bank(d, k_out, N, r, rng)
    router = Matrix(rng.normal(0.0, np.sqrt(1.0 / d), size=(N, d)))
    return MoLoRALayer(W0=W0, bank=bank, router=router, top_k=top_k)
