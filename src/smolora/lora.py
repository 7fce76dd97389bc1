"""Low-rank adapter blocks and the mixture layers built from them.

Three adapter designs share a frozen base weight W0, one layer type each:

* :class:`LoRALayer`, a single LoRA block, a bank of one (sequential
  fine-tuning control),
* :class:`MoLoRALayer`, a token-wise mixture of blocks with one router
  (MoLoRA control),
* :class:`SMoLoRALayer`, the separable mixture: one bank gated per instance
  on the averaged layer input, a second bank gated on the instruction
  embedding, with the two bank outputs fused per position by trainable
  importance scores.

Each is drawn by its seeded `init_*` function and lists its trainable
matrices (`trainable()`) and named arrays (`named()`) itself.

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

Every routed bank, molora's one and the separable layer's two, is one
kernel (`_bank`) that also differentiates its router. A top-1 gate is
one-hot whatever its logits, so its gradient is exactly 0; at top-1 the
rule neither computes nor writes a router gradient. Given a list, the
separable layer appends a `routing.LayerRouting` of the gate and fusion
arrays it computed, which costs no copy.

The separable layer works on its two banks at once: each `_bank` call
writes its output into its row of one stacked array (`out=`, 2 x k_out x
columns, VU then IF), and the layer's importance rows are one 2 x k_out
parameter `I` (VU's row, then IF's; `named()` gives them as `I_vu` and
`I_if`). The fusion scores, weights and scaling, and in the rule the
fusion weights', importances' and bank outputs' gradients, are then one
numpy call each for both banks, and give the bits of the two banks handled
one by one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .routing import LayerRouting, route_instance, route_instruction
from .tensor import Matrix, Tape, check_finite, require_grads, run_means, run_sums, softmax_back


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


@dataclass
class LoRALayer:
    """Frozen W0 plus a bank of one block, applied by :func:`lora_apply`."""

    W0: np.ndarray
    bank: LoRABank

    def trainable(self) -> list[Matrix]:
        return [self.bank.A, self.bank.B]

    def named(self) -> dict[str, np.ndarray]:
        """Trainable arrays by checkpoint name, in checkpoint order: the bank's A and B."""
        return {"lora.A": self.bank.A.a, "lora.B": self.bank.B.a}


def _plus(acc: np.ndarray | None, term: np.ndarray | None) -> np.ndarray | None:
    """acc + term, or whichever of the two is not None."""
    return term if acc is None else acc if term is None else acc + term


def _bank(bank: LoRABank, gate: np.ndarray, x: np.ndarray, s: int, router: Matrix,
          router_in: np.ndarray | None, taped: bool, out: np.ndarray | None = None):
    """One routed bank in two matmuls, B @ (G * (A @ x)), and its backward rule when taped.

    Gate entry (i, j) scales block i's rank rows over instance j's s columns;
    G is the top-k softmax of router @ router_in, and router_in is None at
    top-1, where G is one-hot. The output is written into `out` when given
    (the separable layer passes its bank's row of the stacked outputs).
    Untaped, G scales A @ x, a new array, in place and the rule is None.
    Taped, the rule takes the bank output's gradient and whether x and
    router_in need gradients; it writes those of A, B and, above top-1, the
    router whole into their views and returns those of x and router_in
    (None where not needed). Unselected blocks get zeros. A top-1 router's
    gradient is 0: its view keeps the zeros that `tensor.FlatParameters`
    allocates, since no rule writes it.
    """
    r = bank.rank
    a_stack, b_cat = bank.A.a, bank.B.a
    full = (gate if s == 1 else gate.repeat(s, axis=1)).repeat(r, axis=0)
    z = a_stack @ x
    if not taped:
        z *= full
        return np.matmul(b_cat, z, out=out), None
    zg = full * z
    out = np.matmul(b_cat, zg, out=out)

    def back(g: np.ndarray, need_x: bool, need_in: bool):
        dzg = b_cat.T @ g
        dz = dzg * full
        np.matmul(dz, x.T, out=bank.A.grad)
        np.matmul(g, zg.T, out=bank.B.grad)
        dx = a_stack.T @ dz if need_x else None
        if router_in is None:
            return dx, None
        # Each instance's s columns, then each block's r rows, summed in order.
        runs = run_sums(dzg * z, s).reshape(gate.shape[0], r, gate.shape[1])
        dl = softmax_back(gate, np.add.reduce(runs, axis=1))
        np.matmul(dl, router_in.T, out=router.grad)
        return dx, router.a.T @ dl if need_in else None

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
    writes the gradients of the bank and, above top-1, the router and
    returns x's.
    """
    W0 = layer.W0
    if x.shape[0] != W0.shape[1]:
        raise ShapeError(f"input rows {x.shape[0]} != layer input dim {W0.shape[1]}")
    gate = route_instruction(layer.router.a, x, layer.top_k)
    router_in = x if layer.top_k > 1 else None
    delta, bank_back = _bank(layer.bank, gate, x, 1, layer.router, router_in, tape is not None)
    y = W0 @ x
    y += delta
    check_finite(y)
    if tape is not None:
        require_grads(*layer.trainable())
        need_x = bool(tape._ops)

        def back(g, dx=None):
            dx_bank, d_in = bank_back(g, need_x, need_x)
            if need_x:
                dx = _plus(_plus(dx, W0.T @ g), _plus(dx_bank, d_in))
            return dx

        tape._ops.append(back)
    return y


@dataclass
class SMoLoRALayer:
    """Frozen W0 with separable banks, dual routers, and fusion importances.

    I holds the importance rows, VU's then IF's (2 x k_out).
    """

    W0: np.ndarray
    vu_bank: LoRABank
    if_bank: LoRABank
    R_vu: Matrix
    R_if: Matrix
    I: Matrix
    top_k: int

    def __post_init__(self):
        if not 1 <= self.top_k <= min(len(self.vu_bank), len(self.if_bank)):
            raise ValueError(
                f"top_k {self.top_k} out of range for banks of "
                f"{len(self.vu_bank)} and {len(self.if_bank)}"
            )
        k_out = self.W0.shape[0]
        if self.I.shape != (2, k_out):
            raise ShapeError(f"importance matrix must be 2x{k_out}")

    def trainable(self) -> list[Matrix]:
        return [self.R_vu, self.R_if, self.I,
                self.vu_bank.A, self.vu_bank.B, self.if_bank.A, self.if_bank.B]

    def named(self) -> dict[str, np.ndarray]:
        """Trainable arrays by checkpoint name, in checkpoint order; I's rows are I_vu and I_if."""
        return {
            "R_vu": self.R_vu.a,
            "R_if": self.R_if.a,
            "I_vu": self.I.a[:1],
            "I_if": self.I.a[1:],
            **self.vu_bank.named("vu"),
            **self.if_bank.named("if"),
        }


def adaptive_fusion(
    x_banks: np.ndarray, I: np.ndarray, overwrite: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Per-position convex combination of the two bank outputs.

    x_banks stacks the VU and IF bank outputs (2 x k_out x columns) and I their
    importance rows (2 x k_out). Scores u = I[0] @ x_banks[0] and
    v = I[1] @ x_banks[1] (one batched matmul) pass through a pairwise
    softmax at every column, yielding weights alpha, beta with
    alpha_t + beta_t = 1; the result is alpha*x_vu + beta*x_if column-wise.
    Returns the result and the weights `ab` (2 x columns: alpha, then beta). With
    `overwrite`, for a caller that keeps neither bank output, both are
    scaled in place and the result is x_banks[0] itself.
    """
    if x_banks.ndim != 3 or x_banks.shape[0] != 2 or I.shape != x_banks.shape[:2]:
        raise ShapeError(f"bank outputs {x_banks.shape} do not match importances {I.shape}")
    uv = np.matmul(I[:, None], x_banks)[:, 0]
    e = np.exp(uv - np.maximum(uv[:1], uv[1:]))
    ab = e / (e[:1] + e[1:])
    scaled = np.multiply(ab[:, None], x_banks, out=x_banks if overwrite else None)
    fused = scaled[0]
    fused += scaled[1]
    return fused, ab


def smolora_forward(
    layer: SMoLoRALayer,
    x: np.ndarray,
    instr_emb: np.ndarray,
    tape: Tape | None = None,
    routing: list[LayerRouting] | None = None,
) -> np.ndarray:
    """The layer output W0 @ x + the fused update of both banks, as one tape record.

    instr_emb holds one embedding column per instance, and x the instances'
    columns in order, as many for each. Both banks write into one stacked
    array (2 x k_out x columns: VU, then IF). The rule writes the gradients
    of both banks, the importance rows and, above top-1, routers and
    returns x's; the embeddings, model inputs, take none. When `routing`
    is given, one LayerRouting holding this call's gates and fusion weights
    is appended to it; that takes no copy and no per-instance work.
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
    taped, routed = tape is not None, layer.top_k > 1
    # The VU router reads each instance's mean input column, which only a taped top-k > 1 rule needs.
    vu_in = run_means(x, s) if taped and routed else None
    x_banks = np.empty((2, W0.shape[0], x.shape[1]))
    _, vu_back = _bank(layer.vu_bank, vu_gate, x, s, layer.R_vu, vu_in, taped, x_banks[0])
    _, if_back = _bank(layer.if_bank, if_gate, x, s, layer.R_if, instr_emb if routed else None,
                       taped, x_banks[1])
    I = layer.I
    fused, ab = adaptive_fusion(x_banks, I.a, overwrite=not taped)
    y = W0 @ x
    y += fused
    check_finite(y)
    if taped:
        require_grads(*layer.trainable())
        need_x = bool(tape._ops)

        def back(g, dx=None):
            # Fusion: a pairwise softmax of the scores u, v = I @ x_banks, row by row.
            d_uv = softmax_back(ab, np.add.reduce(g * x_banks, axis=1))
            np.matmul(d_uv[:, None], x_banks.transpose(0, 2, 1), out=I.grad[:, None])
            d_banks = g * ab[:, None] + I.a[:, :, None] * d_uv[:, None]
            dx_vu, d_vu_in = vu_back(d_banks[0], need_x, need_x)
            dx_if, _ = if_back(d_banks[1], need_x, False)
            if need_x:
                dx_banks = dx_vu + dx_if
                if d_vu_in is not None:
                    # Each instance's mean input column spreads back over its s columns.
                    dx_banks = dx_banks + (d_vu_in / s).repeat(s, axis=1)
                dx = _plus(_plus(dx, W0.T @ g), dx_banks)
            return dx

        tape._ops.append(back)
    if routing is not None:
        routing.append(LayerRouting(vu_gate, if_gate, ab[:1], ab[1:]))
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
    I = Matrix(rng.normal(0.0, 0.02, size=(2, k_out)))
    return SMoLoRALayer(W0, vu_bank, if_bank, R_vu, R_if, I, top_k)


def init_lora(d: int, k_out: int, r: int, seed: int | np.random.Generator) -> LoRALayer:
    """Seeded one-block layer, W0 drawn before the block; a Generator seed is drawn from in place."""
    rng = np.random.default_rng(seed)
    W0 = rng.normal(0.0, np.sqrt(1.0 / d), size=(k_out, d))
    return LoRALayer(W0, init_lora_bank(d, k_out, 1, r, rng))


def init_molora(
    d: int, k_out: int, N: int, r: int, top_k: int, seed: int | np.random.Generator
) -> MoLoRALayer:
    """Seeded token-wise mixture layer with N blocks; a Generator seed is drawn from in place."""
    rng = np.random.default_rng(seed)
    W0 = rng.normal(0.0, np.sqrt(1.0 / d), size=(k_out, d))
    bank = init_lora_bank(d, k_out, N, r, rng)
    router = Matrix(rng.normal(0.0, np.sqrt(1.0 / d), size=(N, d)))
    return MoLoRALayer(W0=W0, bank=bank, router=router, top_k=top_k)
