"""Exact dense-amplitude oracle for graph states and local Clifford gates.

Ground truth for every claim in the package: builds graph states, applies
single-qubit Cliffords and CZ exactly, and checks the Hadamard-pair /
edge-local-complementation identity, the local-complementation unitary with
its residual Z gates, and stabilizer fixed points. Gate lists run one
cache-sized tile at a time, ``_plan``, ``_bind``, then ``_run_tile`` per tile;
each function's docstring describes its own step. What the code cannot show:

The H butterfly is exact. t0 = s*a0, t1 = s*a1, a0 = t0 + t1, a1 = t0 - t1
gives the bits of the matrix product s*a0 + s*a1, s*a0 + (-s)*a1, because
fl(-s*a1) = -fl(s*a1) and x + (-y) is x - y in IEEE arithmetic; on complex
data only the sign of a zero part can differ.

Tile classes, and why ``apply_gates`` has none. Tiles whose characters agree
on the gates' targets differ by a +-1 diagonal E constant on every amplitude
pair a gate couples. IEEE rounding is sign-symmetric, fl(-a*b) = -fl(a*b) and
fl(-a +- -b) = -fl(a +- b), so the gates take E x to E times their result on
x, but for the sign of an exact zero. The comparison (``_classes``) reads only
|a - b| and |a|^2; ``apply_gates`` runs the whole list on every tile, so every
amplitude gets the same operations in the same order whatever the tiling, and
its results keep their bits, zero signs included.

Real amplitudes stay float64; a list with a complex gate promotes each tile to
complex128 as it copies it in. This is exact: for a real matrix entry c and a
real amplitude x the complex product (c+0j)(x+0j) has real part c*x - 0*0, the
float64 product, and an imaginary part of +-0.

Qubit convention: bit i of a basis-state index is qubit i (little endian), and
qubit i is graph vertex i. Every cross-module index map goes through this one
convention.
"""

from __future__ import annotations

import operator
from dataclasses import InitVar, dataclass
from enum import Enum
from functools import reduce
from itertools import groupby

import numpy as np

from . import graph as gr
from .errors import (
    BadArityError,
    SizeMismatchError,
    TooManyQubitsError,
    TooSmallError,
    VertexRangeError,
)
from .graph import Graph, mask_vertices
from .report import Report

__all__ = [
    "DEFAULT_MAX_QUBITS",
    "GateKind",
    "Gate",
    "StateVector",
    "plus_state",
    "graph_state",
    "apply_gates",
    "amp_distance",
    "equal_exact",
    "equal_up_to_global_phase",
    "verify_theorem1",
    "verify_vertex_lc",
    "verify_stabilizers",
    "scan_theorem1_shared_neighbors",
]

DEFAULT_MAX_QUBITS = 20

_SQRT2 = np.sqrt(2.0)
# amplitude pairs per kernel block: a block and its scratch stay in L2
_BLOCK = 1 << 14
# bits of a sign-vector chunk, and the int8 Walsh table (-1)^(a.b) over them
_LOW = 7
_MASK = (1 << _LOW) - 1
_WALSH = reduce(np.kron, [np.array([[1, 1], [1, -1]], dtype=np.int8)] * _LOW)
# the most vertices a graph of the shared-neighbour scan draws
_SCAN_MAX_N = 8


class GateKind(Enum):
    H = "H"
    X = "X"
    Z = "Z"
    CZ = "CZ"
    SQRT_MINUS_IX = "SqrtMinusIX"
    SQRT_IZ = "SqrtIZ"


_MATRICES = {
    GateKind.H: np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2,
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    # sqrt(-iX) = (-I + iX)/sqrt(2), sqrt(iZ) = (iI + Z)/sqrt(2)
    GateKind.SQRT_MINUS_IX: np.array([[-1, 1j], [1j, -1]], dtype=complex) / _SQRT2,
    GateKind.SQRT_IZ: np.array([[1j + 1, 0], [0, 1j - 1]], dtype=complex) / _SQRT2,
}
# the kernel takes a matrix as its entries (m00, m01, m10, m11), Python numbers,
# which numpy reads faster than scalars indexed out of an array
_ENTRIES = {kind: tuple(m.ravel().tolist()) for kind, m in _MATRICES.items()}
# the real parts of the real matrices (H, X, Z): on real amplitudes their float64
# products equal the real parts of the complex products bit for bit
_REAL = {kind: tuple(m.real.ravel().tolist()) for kind, m in _MATRICES.items() if not m.imag.any()}


@dataclass(frozen=True)
class Gate:
    """A gate instance: CZ takes 2 distinct targets, everything else takes 1."""

    kind: GateKind
    targets: tuple[int, ...]

    def __post_init__(self):
        want = 2 if self.kind is GateKind.CZ else 1
        if len(self.targets) != want:
            raise BadArityError(f"{self.kind.value} needs {want} target(s), got {self.targets}")
        if type(self.targets[0]) is not int or type(self.targets[-1]) is not int:  # plain ints skip the conversion
            try:  # numpy integers pass, stored as ints
                object.__setattr__(self, "targets", tuple(map(operator.index, self.targets)))
            except TypeError:
                raise BadArityError(f"{self.kind.value} targets must be integers, got {self.targets}") from None
        if self.kind is GateKind.CZ and self.targets[0] == self.targets[1]:
            raise BadArityError(f"CZ targets must be distinct, got {self.targets}")

    @classmethod
    def h(cls, q: int) -> Gate:
        return cls(GateKind.H, (q,))

    @classmethod
    def x(cls, q: int) -> Gate:
        return cls(GateKind.X, (q,))

    @classmethod
    def z(cls, q: int) -> Gate:
        return cls(GateKind.Z, (q,))

    @classmethod
    def cz(cls, a: int, b: int) -> Gate:
        return cls(GateKind.CZ, (a, b))

    @classmethod
    def sqrt_minus_ix(cls, q: int) -> Gate:
        return cls(GateKind.SQRT_MINUS_IX, (q,))

    @classmethod
    def sqrt_iz(cls, q: int) -> Gate:
        return cls(GateKind.SQRT_IZ, (q,))

    def label(self) -> str:
        return f"{self.kind.value}({', '.join(map(str, self.targets))})"


@dataclass(frozen=True)
class StateVector:
    """Dense 2^n amplitude vector; unit norm, read-only.

    The public constructor stores a complex128 copy of ``amps``. States this
    module builds are float64 while every amplitude is real.
    """

    n_qubits: int
    amps: np.ndarray
    _owned: InitVar[bool] = False  # a buffer this module just allocated: keep, do not copy

    def __post_init__(self, _owned):
        _check_cap(self.n_qubits, self.n_qubits)  # the sign only, before 1 << n_qubits
        if not _owned:
            object.__setattr__(self, "amps", np.array(self.amps, dtype=complex))
        if self.amps.shape != (1 << self.n_qubits,):
            raise SizeMismatchError(
                f"expected {1 << self.n_qubits} amplitudes, got shape {self.amps.shape}"
            )
        _check_norm(_squared_norm(self.amps))
        self.amps.setflags(write=False)


def _squared_norm(amps: np.ndarray) -> float:
    """sum |a|^2: size * |value|^2 for one value repeated (a zero-stride view), else ``np.vdot``."""
    return amps.size * abs(amps[0]) ** 2 if amps.strides == (0,) else float(np.vdot(amps, amps).real)


def _check_norm(squared: float) -> None:
    if not abs(squared - 1.0) <= 1e-9:
        raise ValueError("state vector is not normalized")


def _check_cap(n: int, max_qubits: int) -> None:
    if n < 0:
        raise TooSmallError(f"qubit count must be non-negative, got {n}")
    if n > max_qubits:
        raise TooManyQubitsError(f"{n} qubits exceeds the cap of {max_qubits}")


def plus_state(n: int, max_qubits: int = DEFAULT_MAX_QUBITS) -> StateVector:
    """|+>^n, the blank slate every graph state starts from: one float64 as a read-only zero-stride view."""
    _check_cap(n, max_qubits)
    return StateVector(n, np.ndarray(1 << n, np.float64, np.array([2.0 ** (-n / 2)]), 0, (0,)), _owned=True)


def _single_qubit_inplace(amps: np.ndarray, q: int, entries, scratch, butterfly: bool) -> None:
    """The 2x2 matrix ``entries``, (m00, m01, m10, m11), on qubit ``q`` of ``amps``, in place.

    The tile is walked in blocks of ``_BLOCK`` amplitude pairs, every product going through ``out=``
    into the two-block ``scratch``, as in the reference; H runs as the butterfly (module docstring),
    4 passes instead of 7. A block is ``rows`` rows of k pairs: many rows for a low target, part of
    one row for a high one. At q = 1 a row's runs are 2 long, so a block of whole rows is read
    transposed, into scratch laid out (2, 2^q, rows): the same products in the same order, along
    the rows.
    """
    m00, m01, m10, m11 = entries
    inner = 1 << q
    k = min(inner, _BLOCK)
    view = amps.reshape(-1, 2, inner // k, k)
    rows = scratch.shape[1] // k
    across = q == 1 and k == inner
    t0, t1 = scratch.reshape(2, k, rows) if across else scratch.reshape(2, rows, k)
    for r in range(0, view.shape[0], rows):
        for j in range(view.shape[2]):
            a0, a1 = view[r : r + rows, 0, j], view[r : r + rows, 1, j]
            if across:
                a0, a1 = a0.T, a1.T
            if butterfly:
                np.multiply(m00, a0, out=t0)
                np.multiply(m00, a1, out=t1)
                np.add(t0, t1, out=a0)
                np.subtract(t0, t1, out=a1)
            else:
                np.multiply(m00, a0, out=t0)
                np.multiply(m01, a1, out=t1)
                t0 += t1
                np.multiply(m10, a0, out=t1)
                a0[...] = t0
                np.multiply(m11, a1, out=t0)
                np.add(t0, t1, out=a1)


def _sign_vector(n: int, rows: list[int]) -> np.ndarray:
    """int8 (-1)^(x^T U x) for all x, from a graph's symmetric bit rows.

    The quadratic form of a graph state (Dehaene and De Moor, PRA 68, 042318):
    U is the strict upper triangle of the adjacency matrix, U[j, i] = bit j of
    ``rows[i]`` for j < i, and only those bits are read. For y < 2^i,
    x = 2^i + y gives x^T U x = y^T U y + v.y with v = ``rows[i]`` below bit i,
    so the signs of the indices whose top bit is i are those of y times the
    Walsh row (-1)^(v.y). Split y into _LOW-bit chunks y_k and v into v_k, and
    that row is the product over k of W[v_k, y_k], W the table. The two lowest
    chunks make a row of at most 2^14 entries, which multiplies the signs so
    far into the new half; each higher chunk is one pass over that half.
    """
    sign = np.empty(1 << n, dtype=np.int8)
    sign[0] = 1
    for i, row in enumerate(rows):
        row &= (1 << i) - 1
        if not row:  # no lower partner, an all-ones row: the new half is a copy of the signs so far
            sign[1 << i : 2 << i] = sign[: 1 << i]
            continue
        walsh = _WALSH[row & _MASK, : 1 << min(i, _LOW)]
        if i > _LOW:
            walsh = np.multiply.outer(_WALSH[(row >> _LOW) & _MASK, : 1 << min(i - _LOW, _LOW)], walsh).ravel()
        half = sign[1 << i : 2 << i]
        if i > 2 * _LOW:  # the row is 2^14 entries, one per index of each 2^14 block of the half
            np.multiply(sign[: 1 << i].reshape(-1, walsh.size), walsh, out=half.reshape(-1, walsh.size))
        else:  # the row is the whole half: no reshape, which small states feel
            np.multiply(sign[: 1 << i], walsh, out=half)
        for lo in range(2 * _LOW, i, _LOW):
            width = 1 << min(i - lo, _LOW)
            half.reshape(-1, width, 1 << lo)[...] *= _WALSH[(row >> lo) & _MASK, :width, None]
    return sign


def graph_state(g: Graph, max_qubits: int = DEFAULT_MAX_QUBITS) -> StateVector:
    """|G> = product of CZ over the edges on |+>^n: 2^(-n/2) times the sign vector, float64."""
    _check_cap(g.n, max_qubits)
    amps = _sign_vector(g.n, g.rows) * 2.0 ** (-g.n / 2)
    return StateVector(g.n, amps, _owned=True)


def _plan(sv: StateVector, items, label=None) -> tuple[list[tuple], type, int]:
    """A gate list as tile operations, their dtype and the smallest tile that runs them: 2 * ``_BLOCK``
    amplitudes at least, widened until every single-qubit target lies inside it (qubit n-1: the
    whole vector).

    An item is a ``Gate`` or a ``Graph``; a graph is a run of CZs, one per edge.
    One pass checks each target and graph size as it plans that item, and
    allocates no array. The dtype is float64 for a float64 input and real gates
    (H, X, Z, CZ), else complex128. A single-qubit gate becomes ("gate", q,
    kind), and every such q lies inside the tile: the kernel pairs amplitudes
    2^q apart, Z and sqrt(iZ) included. A run of CZs and graphs is XORed into
    symmetric bit rows, a graph's rows straight in and a CZ as both of its bits:
    pairs that cancel leave nothing, and any other run becomes ("sign", rows).
    ``label``, if given, renames each qubit q ``label[q]``: a checked target,
    and each run's rows, permuted once the run is read.
    """
    n = sv.n_qubits
    real = sv.amps.dtype == np.float64
    ops = []
    top = 0
    for is_cz, run in groupby(items, key=_in_cz_run):
        rows = [0] * n
        for item in run:
            if isinstance(item, Graph):
                if item.n != n:
                    raise SizeMismatchError(f"graph has {item.n} vertices, state has {n} qubits")
                rows = list(map(operator.xor, rows, item.rows))
                continue
            for t in item.targets:
                if not 0 <= t < n:
                    raise VertexRangeError(f"target {t} out of range for {n} qubits")
            if is_cz:
                a, b = item.targets
                rows[a] ^= 1 << b
                rows[b] ^= 1 << a
            else:
                real = real and item.kind in _REAL
                q = item.targets[0] if label is None else label[item.targets[0]]
                top = q if q > top else top
                ops.append(("gate", q, item.kind))
        if any(rows):
            if label is not None:
                moved = [0] * n
                for i, row in enumerate(rows):
                    moved[label[i]] = sum(1 << label[j] for j in mask_vertices(row))
                rows = moved
            ops.append(("sign", rows))
    return ops, np.float64 if real else complex, min(1 << n, max(2 * _BLOCK, 2 << top))


def _in_cz_run(item) -> bool:
    """Whether a gate-list item goes into a CZ run: a CZ or a whole ``Graph``."""
    return isinstance(item, Graph) or item.kind is GateKind.CZ


def _form(rows: list[int], start: int, low: int) -> tuple[int, int]:
    """(sigma, w) of a CZ run's symmetric rows at the tile ``start`` whose in-tile bits are ``low``.

    With x = start + l, x^T U x = start^T U start + w.l + l^T U l, w the XOR of
    row j's ``low`` bits over the bits j of ``start``: the run's slice at the
    tile is sigma = (-1)^(start^T U start) times its first tile times the
    character (-1)^(w.l). Only the bits of row j below j are read, as in
    ``_sign_vector``.
    """
    w = edges = 0
    for j in mask_vertices(start):
        w ^= rows[j] & low
        edges += (rows[j] & start & ((1 << j) - 1)).bit_count()
    return 1 - 2 * (edges & 1), w


def _factor(form: tuple[int, int], size: int, base: np.ndarray | None = None):
    """The int8 tile sigma * base * (-1)^(w.l), l < ``size``: the character is the outer product of
    one ``_WALSH`` row per ``_LOW`` bits of l, the highest outermost, built from the lowest up so that
    each product's inner loop is the longer factor. ``base`` itself (None: all ones) when sigma is 1
    and w is 0."""
    sigma, w = form
    if sigma > 0 and not w:
        return base
    bits = size.bit_length() - 1
    walsh = [_WALSH[(w >> lo) & _MASK, : 1 << min(bits - lo, _LOW)] for lo in range(0, bits, _LOW)]
    f = reduce(lambda low, high: np.multiply.outer(high, low).ravel(), walsh[1:], sigma * walsh[0])
    return f if base is None else np.multiply(f, base, out=f)


def _run_tile(src: np.ndarray, ops: list[tuple], tile: np.ndarray, start: int, scratch) -> None:
    """Copy ``src`` into ``tile``, the tile at ``start``, and run the bound ops on it, in order: a
    single-qubit gate in place, a CZ run as one multiply by its slice at the tile, made from its base.
    Nothing is kept from one tile to the next, so the tiles may run in any order."""
    tile[...] = src
    for op in ops:
        if op[0] == "gate":
            _single_qubit_inplace(tile, op[1], op[2], scratch, op[3])
        else:
            tile *= _factor(_form(op[1], start, tile.size - 1), tile.size, op[2])


def _bind(ops: list[tuple], dtype, size: int):
    """A plan bound to tiles of ``size`` = 2^b, the only step that allocates: a gate op gets its kernel
    entries for ``dtype`` and whether it runs as the butterfly (H), a sign op its base, its first tile
    of signs, ``_sign_vector(b, rows[:b])``. Also the kernel scratch, for a list with a single-qubit
    gate (else None)."""
    bits = size.bit_length() - 1
    entries = _REAL if dtype is np.float64 else _ENTRIES
    scratch = np.empty((2, min(size // 2, _BLOCK)), dtype) if any(op[0] == "gate" for op in ops) else None
    return [("gate", op[1], entries[op[2]], op[2] is GateKind.H) if op[0] == "gate"
            else (*op, _sign_vector(bits, op[1][:bits])) for op in ops], scratch


def _classes(src: np.ndarray, ops: list[tuple], dtype, size: int):
    """A plan on |+>^n (``src``) by tile class (module docstring): the tiles' keys, a walk, and the
    product of the bases of the sign ops after the last single-qubit gate (None when there are none).

    Every tile of |+>^n starts equal, so the prefix, the k leading ops that stay inside a tile
    (single-qubit gates, and CZ runs below the tile's top bit), runs once into a first tile, and
    every class tile starts from it. The key of tile s holds 1 - 2 * bit q of w(s) (``_form``), the
    sign v[s + 2^q] v[s] of a run's slice, for each CZ run from the prefix to the last single-qubit
    gate and each of their targets q. The walk runs those ops on the first tile r of each class it
    meets and yields (class tile, its squared norm, the (sigma, w) that make it tile s, r): those of
    the runs after the last gate at s, and for s != r those of the earlier runs at s and at r, which
    make E = sigma * (-1)^(w.l), since each base squares to one. r names the class tile's contents.
    """
    ops, scratch = _bind(ops, dtype, size)
    bits = size.bit_length() - 1
    k = next((i for i, op in enumerate(ops) if op[0] == "sign" and any(op[1][bits:])), len(ops))
    base = src[:size]
    if k:
        base = np.empty(size, dtype)
        _run_tile(src[:size], ops[:k], base, 0, scratch)
    end = max([k] + [i + 1 for i, op in enumerate(ops) if op[0] == "gate"])
    stretch = [op[1] for op in ops[k:end] if op[0] == "sign"]
    targets = sorted({op[1] for op in ops[k:end] if op[0] == "gate"})
    forms = {s: [_form(rows, s, size - 1) for rows in stretch] for s in range(0, src.size, size)}
    keys = {s: tuple(1 - 2 * (w >> q & 1) for _, w in form for q in targets) for s, form in forms.items()}
    tail = reduce(np.multiply, [op[2] for op in ops[end:]]) if end < len(ops) else None
    tile = base if end == k else np.empty(size, dtype)

    def walk(order):
        key = rep = None
        for start in order:
            if keys[start] != key:
                key, rep = keys[start], start
                if tile is not base:
                    _run_tile(base, ops[k:end], tile, start, scratch)
                norm = _squared_norm(tile)
            parts = [_form(op[1], start, size - 1) for op in ops[end:]]
            if start != rep:
                parts += forms[start] + forms[rep]
            yield tile, norm, reduce(lambda p, f: (p[0] * f[0], p[1] ^ f[1]), parts, (1, 0)), rep

    return keys, walk, tail


def apply_gates(sv: StateVector, gates) -> StateVector:
    """Exact unitary action of a gate list: every tile of the result, |+>^n's too, runs the whole list.

    Each tile is copied in from the input and runs the whole list while it stays in cache, so no gate
    walks the whole vector. Every target is checked before any work; the input state is never written.
    The result is float64 when the input is float64 and every gate is real (H,
    X, Z, CZ), otherwise complex128.
    """
    return _apply(sv, *_plan(sv, gates))


def _apply(sv: StateVector, ops: list[tuple], dtype, size: int) -> StateVector:
    """``apply_gates`` of a ``_plan`` of ``sv``."""
    ops, scratch = _bind(ops, dtype, size)
    amps = np.empty(sv.amps.size, dtype)
    for start in range(0, amps.size, size):
        _run_tile(sv.amps[start : start + size], ops, amps[start : start + size], start, scratch)
    return StateVector(sv.n_qubits, amps, _owned=True)


def _check_same_size(a: StateVector, b: StateVector) -> None:
    if a.n_qubits != b.n_qubits:
        raise SizeMismatchError(f"qubit counts differ: {a.n_qubits} vs {b.n_qubits}")


def _max_deviation(a: np.ndarray, b: np.ndarray, lam=None, limit=None) -> float:
    """max |a - lam b| (lam None: max |a - b|), block by block, reusing the first block's buffers.

    With a ``limit``, it returns after the first block whose maximum so far is not ``<= limit`` (a NaN
    included): then only whether the whole maximum is ``<= limit`` is known, and it is not.
    """
    step = min(a.size, 2 * _BLOCK)
    diff = mags = None
    worst = 0.0
    for i in range(0, a.size, step):
        rhs = b[i : i + step]
        if lam is not None:
            rhs = diff = np.multiply(lam, rhs, out=diff)
        diff = np.subtract(a[i : i + step], rhs, out=diff)
        mags = np.abs(diff, out=mags)
        worst = mags.max(initial=worst)  # a NaN stays NaN, as in one max over all
        if limit is not None and not worst <= limit:
            break
    return float(worst)


def amp_distance(a: StateVector, b: StateVector) -> float:
    """Largest component-wise amplitude deviation."""
    _check_same_size(a, b)
    return _max_deviation(a.amps, b.amps)


def _streamed_distance(n: int, a_items, b_items) -> float:
    """``amp_distance`` of the two gate lists, each run on |+>^n; past one tile, making neither state.

    An item is a ``Gate`` or a ``Graph``, which ``_plan`` takes as one CZ run, so
    a graph state is the list ``[graph]``. The caller checks the qubit cap. |+>^n
    is invariant under any relabelling of its qubits, and relabelling both
    results alike only permutes their amplitudes, so past a 2^16-amplitude tile
    (4 * ``_BLOCK``; measured a little faster than the smallest tile) both
    ``_plan`` calls take one qubit map that moves every single-qubit target to
    the top bits of that tile, where the kernel runs fastest. Both lists are
    planned, and so checked, first; a comparison whose tile is the whole state
    (always at most 2 * ``_BLOCK`` amplitudes) or a list with a complex gate then
    goes to the dense oracle, which runs those plans, so the walk sees float64
    tiles only, two or more of them, and holds no output tile of a whole state. The
    tiles go in order of both lists' keys (``_classes``). The two lists' tail
    bases are multiplied once, and a tile pair (a, Fa), (b, Fb), each factor
    given as (sigma, w), gives |a Fa - b Fb| as |a - b F|, F = sigma_a sigma_b
    (tail bases) (-1)^((w_a ^ w_b).l), one character per pair. Every pair adds
    to both squared norms, which are then checked as ``StateVector`` checks
    them; only a pair whose class tiles (their first tiles r) and combined
    (sigma, w) were not met before adds to the maximum, since a repeat computes
    the same floats.
    """
    plus = plus_state(n, max_qubits=n)
    sides = [list(a_items), list(b_items)]
    bits = (4 * _BLOCK).bit_length() - 1
    label = None
    if n > bits:
        singles = {item.targets[0] for item in sides[0] + sides[1] if not _in_cz_run(item)}
        top = [q for q in range(n) if q in singles]
        rest = [q for q in range(n) if q not in singles]
        cut = max(bits - len(top), 0)
        label = dict(zip(rest[:cut] + top + rest[cut:], range(n)))  # the other qubits keep their order
    plans = [_plan(plus, side, label) for side in sides]  # both lists checked, nothing allocated
    size = max(plan[2] for plan in plans)
    if size == plus.amps.size or complex in [plan[1] for plan in plans]:
        return amp_distance(*(_apply(plus, *plan) for plan in plans))
    classes = [_classes(plus.amps, ops, dtype, size) for ops, dtype, _ in plans]
    order = sorted(classes[0][0], key=lambda start: [keys[start] for keys, *_ in classes])
    walks = [walk(order) for _, walk, _ in classes]
    tails = [t for *_, t in classes if t is not None]
    tail = reduce(np.multiply, tails) if tails else None
    out = np.empty(size)
    worst = 0.0
    norms = [0.0, 0.0]
    seen = set()
    for (ta, na, fa, ra), (tb, nb, fb, rb) in zip(*walks):
        norms[0] += na
        norms[1] += nb
        key = (ra, rb, fa[0] * fb[0], fa[1] ^ fb[1])
        if key in seen:  # the same class tiles and factor: the same floats, and max is idempotent
            continue
        seen.add(key)
        f = _factor(key[2:], size, tail)
        np.subtract(ta, tb if f is None else np.multiply(tb, f, out=out), out=out)
        worst = np.abs(out, out=out).max(initial=worst)
    for norm in norms:
        _check_norm(norm)
    return float(worst)


def equal_exact(a: StateVector, b: StateVector, tol: float = 1e-9) -> bool:
    """Component-wise equality; global phase matters here. Stops at the first block over ``tol``."""
    _check_same_size(a, b)
    return _max_deviation(a.amps, b.amps, limit=tol) <= tol


def equal_up_to_global_phase(
    a: StateVector, b: StateVector, tol: float = 1e-9
) -> tuple[bool, complex]:
    """Best unit phase lambda for a ~ lambda * b, and whether the residual fits tol.

    The phase is read off the first largest-magnitude component of b;
    near-orthogonal states make that ill-conditioned, but then the residual
    fails anyway. Both passes go block by block, with no 2^n temporary, and
    the residual stops at the first block over ``tol``.
    """
    _check_same_size(a, b)
    step = min(b.amps.size, 2 * _BLOCK)
    mags = np.empty(step)
    k, top = 0, -1.0
    for i in range(0, b.amps.size, step):
        np.abs(b.amps[i : i + step], out=mags)
        j = int(mags.argmax())
        if mags[j] > top:  # strictly: an earlier block wins a tie, as in np.argmax
            k, top = i + j, mags[j]
    lam = a.amps[k] * np.conj(b.amps[k])
    mag = abs(lam)
    if mag == 0.0:
        return False, 1 + 0j
    lam /= mag
    ok = _max_deviation(a.amps, b.amps, lam, tol) <= tol
    return ok, complex(lam)


def verify_theorem1(
    g1: Graph,
    c1: int,
    g2: Graph,
    c2: int,
    tol: float = 1e-9,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> Report:
    """Check H x H on the CZ-joined cores against the ELC'd graph state, exactly.

    LHS: CZ between the cores of |G1>|G2>, then a Hadamard on each core.
    RHS: the graph state of the edge-locally-complemented joined graph.
    Both sides are gate lists on |+>^n, ``[G1 + G2, CZ, H, H]`` against
    ``[ELC graph]``, compared by ``_streamed_distance``: past one tile no 2^n
    state is built, and the cap is checked before anything is allocated. The
    reported LHS gates are the three after the union's graph state.
    """
    g1.check_vertex(c1)
    g2.check_vertex(c2)
    n = g1.n + g2.n
    _check_cap(n, max_qubits)
    c2_global = c2 + g1.n
    union = gr.disjoint_union(g1, g2)

    lhs_gates = [Gate.cz(c1, c2_global), Gate.h(c1), Gate.h(c2_global)]
    joined = gr.toggle_edge(union, c1, c2_global)
    elc_graph = gr.edge_local_complement(joined, c1, c2_global)

    diff = _streamed_distance(n, [union, *lhs_gates], [elc_graph])
    return Report(
        passed=diff <= tol,
        details={
            "n_qubits": n,
            "cores": [c1, c2_global],
            "lhs_gates": [gate.label() for gate in lhs_gates],
            "rhs_graph_edges": [list(e) for e in elc_graph.edges()],
            "max_amp_diff": diff,
            "tol": tol,
        },
    )


def verify_vertex_lc(
    g: Graph,
    a: int,
    tol: float = 1e-9,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> Report:
    """Check the local-complementation unitary against the LC graph plus Z gates.

    sqrt(-iX) on the vertex with sqrt(iZ) on each neighbor reproduces the
    locally complemented graph state once a Z is applied to every neighbor,
    up to a global phase.
    """
    g.check_vertex(a)
    nbrs = mask_vertices(g.rows[a])

    lhs = apply_gates(graph_state(g, max_qubits), [*map(Gate.sqrt_iz, nbrs), Gate.sqrt_minus_ix(a)])
    rhs = apply_gates(graph_state(gr.local_complement(g, a), max_qubits), map(Gate.z, nbrs))

    ok, phase = equal_up_to_global_phase(lhs, rhs, tol)
    return Report(
        passed=ok,
        details={
            "vertex": a,
            "z_corrections": list(nbrs),
            "global_phase": [phase.real, phase.imag],
            "tol": tol,
        },
    )


def verify_stabilizers(
    g: Graph, tol: float = 1e-9, max_qubits: int = DEFAULT_MAX_QUBITS
) -> Report:
    """Check X_a prod_{b in N(a)} Z_b fixes |G> for every vertex a; no vertex, no check: not passed."""
    base = graph_state(g, max_qubits)
    worst = 0.0
    failures = []
    for a in range(g.n):
        nbrs = mask_vertices(g.rows[a])
        sv = apply_gates(base, [*map(Gate.z, nbrs), Gate.x(a)])
        diff = amp_distance(sv, base)
        worst = max(worst, diff)
        if diff > tol:
            failures.append(a)
    return Report(
        passed=g.n > 0 and not failures,
        details={
            "n_qubits": g.n,
            "generators_checked": g.n,
            "failed_vertices": failures,
            "max_amp_diff": worst,
            "tol": tol,
        },
    )


def _checked_rows(states: np.ndarray) -> np.ndarray:
    """``states``, a batch of states as rows, once every row passes ``StateVector``'s norm check (the
    row furthest from norm 1, a NaN first, is the one checked)."""
    squared = np.einsum("ij,ij->i", states, states)
    if squared.size:
        _check_norm(squared[np.abs(squared - 1.0).argmax()])
    return states


def _graph_states(n: int, graphs: list[Graph]) -> np.ndarray:
    """``graph_state`` of each of ``graphs``, all of ``n`` vertices, as the rows of one float64 array.

    The signs double as in ``_sign_vector``: the new half of row r at vertex i is
    its signs so far times the Walsh row of graph r's row i below bit i. Up to
    ``_LOW + 1`` vertices those bits fit one ``_WALSH`` row, so sizes past that
    are refused. The products of +-1 are exact, and each amplitude is
    sign * 2^(-n/2), as in ``graph_state``, so every row has its bits.
    """
    _check_cap(n, _LOW + 1)
    rows = np.array([g.rows for g in graphs], dtype=np.int64).reshape(len(graphs), n)
    sign = np.empty((len(graphs), 1 << n), dtype=np.int8)
    sign[:, 0] = 1
    for i in range(n):
        walsh = _WALSH[rows[:, i] & ((1 << i) - 1), : 1 << i]
        np.multiply(sign[:, : 1 << i], walsh, out=sign[:, 1 << i : 2 << i])
    return _checked_rows(sign * 2.0 ** (-n / 2))


def _hadamard_rows(states: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """``apply_gates`` of ``[H(targets[r, 0]), H(targets[r, 1]), ...]`` on each row r of the float64
    ``states``, in place, then the norm check: each H pairs amplitudes 2^q apart, q the row's own
    target, and runs ``_single_qubit_inplace``'s butterfly on them, so every row has the bits of the
    one-state result."""
    m00 = _REAL[GateKind.H][0]
    pair = np.arange(states.shape[1] // 2)
    r = np.arange(len(states))[:, None]
    for q in targets.T[:, :, None]:
        lo = ((pair >> q) << (q + 1)) | (pair & ((1 << q) - 1))
        hi = lo | (1 << q)
        t0 = m00 * states[r, lo]
        t1 = m00 * states[r, hi]
        states[r, lo] = t0 + t1
        states[r, hi] = t0 - t1
    return _checked_rows(states)


def _rows_equal_exact(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """``equal_exact`` of each row pair of two float64 batches: max |a - b| <= tol."""
    return np.abs(a - b).max(axis=1, initial=0.0) <= tol


def _rows_equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """``equal_up_to_global_phase`` of each row pair of two float64 batches: whether each fits tol, and
    each phase, +-1 (1 where it cannot be read), read off the row's first largest |b| component."""
    r = np.arange(len(b))
    k = np.abs(b).argmax(axis=1)
    lam = a[r, k] * b[r, k]
    mag = np.abs(lam)
    lam = np.divide(lam, mag, out=np.ones_like(lam), where=mag != 0.0)
    return (mag != 0.0) & (np.abs(a - lam[:, None] * b).max(axis=1, initial=0.0) <= tol), lam


def scan_theorem1_shared_neighbors(
    trials: int = 50,
    seed: int = 0,
    tol: float = 1e-9,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> Report:
    """Probe the excluded regime: Hadamard pairs on edges whose endpoints share a neighbor.

    The main identity is only claimed for disjoint neighborhoods. Here random
    graphs with a shared-neighbor edge are checked and the equality status is
    recorded, never asserted; ``passed`` means the scan found as many such
    cases as were asked for, and at least one. With shared neighbours S the
    pair gives Z_S |ELC graph> (Van den Nest, Dehaene & De Moor, PRA 69, 022316
    (2004)), which the scan should find unequal, even up to phase.

    All cases are drawn first, then each graph size's cases are checked in one
    batch of rows, each step with the bits of its one-state function:
    ``_graph_states`` for ``graph_state``, ``_hadamard_rows`` for ``apply_gates``
    of ``[H(a), H(b)]``, ``_rows_equal_exact`` for ``equal_exact`` and
    ``_rows_equal_up_to_phase`` for ``equal_up_to_global_phase``. Every state
    is norm-checked as a ``StateVector`` would be.
    """
    _check_cap(_SCAN_MAX_N, max_qubits)  # before any draw, whatever the seed
    rng = np.random.default_rng(seed)
    cases = []
    attempts = 0
    while len(cases) < trials and attempts < trials * 200:
        attempts += 1
        n = int(rng.integers(3, _SCAN_MAX_N + 1))
        g = gr.random_graph(rng, n)
        candidates = [(a, b) for a, b in g.edges() if g.rows[a] & g.rows[b]]
        if candidates:
            cases.append((g, *candidates[int(rng.integers(0, len(candidates)))]))
    by_size = {}
    for i, (g, _, _) in enumerate(cases):
        by_size.setdefault(g.n, []).append(i)
    exact = np.zeros(len(cases), dtype=bool)
    phase = np.zeros(len(cases), dtype=bool)
    for n, batch in by_size.items():
        graphs = [cases[i][0] for i in batch]
        lhs = _hadamard_rows(_graph_states(n, graphs), np.array([cases[i][1:] for i in batch]))
        rhs = _graph_states(n, [gr.edge_local_complement(*cases[i]) for i in batch])
        exact[batch] = _rows_equal_exact(lhs, rhs, tol)
        phase[batch] = _rows_equal_up_to_phase(lhs, rhs, tol)[0]
    first = next((cases[i] for i in np.flatnonzero(~phase)), None)
    return Report(
        passed=0 < len(cases) == trials,
        details={
            "seed": seed,
            "cases_checked": len(cases),
            "equal_exact": int(exact.sum()),
            "equal_up_to_phase": int(phase.sum()),
            "first_counterexample": None if first is None else {
                "n": first[0].n,
                "edges": [list(e) for e in first[0].edges()],
                "edge": list(first[1:]),
            },
            "tol": tol,
        },
    )
