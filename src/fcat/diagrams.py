"""Graphical calculus on tensor words in the canonical fusion-tree basis.

A morphism ``f : A -> B`` between tensor words is stored per simple total
charge ``k`` as the matrix of the linear map ``Hom(k, A) -> Hom(k, B)``,
``h -> f . h``, in canonical bases of splitting trees.  The canonical tree
shape is strictly left-nested; a tree for a word of length ``n`` is the
tuple ``((m_2, mu_2), ..., (m_n, mu_n))`` of intermediate charges and
vertex indices, with ``m_n`` the total charge.  Basis order is the
deterministic recursive order: intermediate charge ascending (outermost
last), then sub-tree, then vertex index.

Tensor products are computed by recoupling through the factorization
isomorphism ``Hom(k, A++B) = sum_{i,j} Hom(i, A) (x) Hom(j, B) (x) V(i,j;k)``
whose matrix is assembled from F-symbols.  Cups and caps are normalized so
that the zig-zag identities hold exactly and a closed loop on ``a``
evaluates to ``d(a)``; remaining gauge freedom makes cup entries
real-positive whenever the data allows it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .category import CategorySpec, braid_coeff
from .errors import BadPosition, ConsistencyError, NotBraided, ShapeMismatch

__all__ = [
    "Morphism", "tree_basis", "tree_dims", "factor",
    "identity", "zero_morphism", "random_morphism", "compose", "tensor",
    "cup", "cap", "cup_word", "cap_word",
    "bend_right", "bend_left", "unbend_right", "unbend_left",
    "braid", "braid_word", "trace", "trace_left", "trace_right", "ptrace_left",
    "decompose_resolution", "dual_decompose_check",
    "basis_injection", "basis_projection",
    "morphism_to_json", "morphism_from_json",
    "left_comb", "f_move",
]


# ---------------------------------------------------------------------------
# tree bases and the factorization isomorphism

def tree_basis(spec: CategorySpec, word) -> dict:
    """Canonical fusion trees of ``word``, as ``{total charge: [tree, ...]}``."""
    word = tuple(word)
    key = ("trees", word)
    cached = spec._cache.get(key)
    if cached is not None:
        return cached
    n = len(word)
    if n == 0:
        out = {spec.unit: [()]}
    elif n == 1:
        out = {word[0]: [()]}
    else:
        N = spec.rules.N
        prefix = tree_basis(spec, word[:-1])
        out = {}
        for k in range(spec.n_labels):
            trees = [sub + ((k, mu),)
                     for m in sorted(prefix)
                     for sub in prefix[m]
                     for mu in range(N[m, word[-1], k])]
            if trees:
                out[k] = trees
    spec._cache[key] = out
    return out


def tree_dims(spec: CategorySpec, word) -> dict:
    return {k: len(ts) for k, ts in tree_basis(spec, word).items()}


def _tree_index(spec, word) -> dict:
    key = ("tree_index", tuple(word))
    cached = spec._cache.get(key)
    if cached is not None:
        return cached
    out = {k: {t: i for i, t in enumerate(ts)}
           for k, ts in tree_basis(spec, word).items()}
    spec._cache[key] = out
    return out


def factor(spec: CategorySpec, word, p: int) -> dict:
    """Factorization of ``Hom(k, word)`` across the cut at position ``p``.

    Returns ``{k: (basis, U)}`` where ``basis`` lists factored elements
    ``(i, j, ia, ic, nu)`` -- charges of the two parts, tree indices into
    ``tree_basis`` of ``word[:p]`` and ``word[p:]``, and the joining vertex
    index ``nu`` in ``V(i,j;k)`` -- and ``U`` maps canonical coordinates to
    factored coordinates.
    """
    word = tuple(word)
    if not 0 <= p <= len(word):
        raise ShapeMismatch(f"cut {p} outside word of length {len(word)}")
    key = ("factor", word, p)
    cached = spec._cache.get(key)
    if cached is not None:
        return cached

    A, C = word[:p], word[p:]
    out = {}
    if len(C) == 0:
        for k, ts in tree_basis(spec, word).items():
            basis = [(k, spec.unit, i, 0, 0) for i in range(len(ts))]
            out[k] = (basis, np.eye(len(ts), dtype=complex))
    elif len(A) == 0:
        for k, ts in tree_basis(spec, word).items():
            basis = [(spec.unit, k, 0, i, 0) for i in range(len(ts))]
            out[k] = (basis, np.eye(len(ts), dtype=complex))
    elif len(C) == 1:
        # the canonical tree already has the last letter split off
        idx_A = _tree_index(spec, A)
        for k, ts in tree_basis(spec, word).items():
            basis = []
            for t in ts:
                m = t[-2][0] if len(t) >= 2 else A[0]
                basis.append((m, C[0], idx_A[m][t[:-1]], 0, t[-1][1]))
            out[k] = (basis, np.eye(len(ts), dtype=complex))
    else:
        c = word[-1]
        inner = factor(spec, word[:-1], p)
        trees_A = tree_basis(spec, A)
        trees_C = tree_basis(spec, C)
        trees_Cp = tree_basis(spec, C[:-1])
        idx_C = _tree_index(spec, C)
        idx_can = _tree_index(spec, word[:-1])
        for k, ts in tree_basis(spec, word).items():
            fac_basis = []
            fac_pos = {}
            for i in sorted(trees_A):
                for j in sorted(trees_C):
                    for ia in range(len(trees_A[i])):
                        for ic in range(len(trees_C[j])):
                            for nu in range(spec.rules.N[i, j, k]):
                                fac_pos[(i, j, ia, ic, nu)] = len(fac_basis)
                                fac_basis.append((i, j, ia, ic, nu))
            U = np.zeros((len(fac_basis), len(ts)), dtype=complex)
            for col, t in enumerate(ts):
                m, lam = t[-2][0], t[-1][1]
                sub = t[:-1]
                if m not in inner:
                    continue
                basis_m, U_m = inner[m]
                col_m = idx_can[m][sub]
                for row_m, (i, jp, ia, icp, nup) in enumerate(basis_m):
                    w = U_m[row_m, col_m]
                    if w == 0:
                        continue
                    F, lhs, rhs = spec.F.matrix(spec, i, jp, c, k)
                    li = lhs.index((m, nup, lam))
                    sub_C = trees_Cp[jp][icp]
                    for rj, (j, ga, de) in enumerate(rhs):
                        val = F[li, rj]
                        if val == 0:
                            continue
                        tC = sub_C + ((j, ga),)
                        ic = idx_C[j][tC]
                        U[fac_pos[(i, j, ia, ic, de)], col] += w * val
            out[k] = (fac_basis, U)
    spec._cache[key] = out
    return out


def _factor_inv(spec, word, p, k):
    key = ("factor_inv", tuple(word), p, k)
    cached = spec._cache.get(key)
    if cached is not None:
        return cached
    _, U = factor(spec, word, p)[k]
    Ui = np.linalg.inv(U)
    spec._cache[key] = Ui
    return Ui


# ---------------------------------------------------------------------------
# morphisms

@dataclass
class Morphism:
    """An element of ``Hom(src, dst)`` stored as per-charge tree-basis blocks.

    ``blocks[k]`` has shape ``(#trees(dst, k), #trees(src, k))``; missing
    blocks are zero.  Morphisms are immutable values by convention.
    """
    spec: CategorySpec
    src: tuple
    dst: tuple
    blocks: dict
    src_shape: object = None
    dst_shape: object = None

    def block(self, k: int) -> np.ndarray:
        b = self.blocks.get(k)
        if b is not None:
            return b
        nr = tree_dims(self.spec, self.dst).get(k, 0)
        nc = tree_dims(self.spec, self.src).get(k, 0)
        return np.zeros((nr, nc), dtype=complex)

    def channels(self):
        return sorted(set(tree_dims(self.spec, self.src))
                      & set(tree_dims(self.spec, self.dst)))

    def norm(self) -> float:
        vals = [np.abs(b).max() for b in self.blocks.values() if b.size]
        return float(max(vals)) if vals else 0.0

    def __add__(self, other: "Morphism") -> "Morphism":
        _check_parallel(self, other)
        blocks = dict(self.blocks)
        for k, b in other.blocks.items():
            blocks[k] = blocks[k] + b if k in blocks else b
        return replace(self, blocks=blocks)

    def __sub__(self, other: "Morphism") -> "Morphism":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "Morphism":
        return replace(self, blocks={k: scalar * b for k, b in self.blocks.items()})

    __rmul__ = __mul__


def _check_parallel(f: Morphism, g: Morphism):
    if f.spec is not g.spec or f.src != g.src or f.dst != g.dst \
            or f.src_shape != g.src_shape or f.dst_shape != g.dst_shape:
        raise ShapeMismatch("morphisms are not parallel")


def identity(spec: CategorySpec, word) -> Morphism:
    word = tuple(spec.word(word))
    dims = tree_dims(spec, word)
    return Morphism(spec, word, word, {k: np.eye(d, dtype=complex)
                                       for k, d in dims.items()})


def zero_morphism(spec: CategorySpec, src, dst) -> Morphism:
    return Morphism(spec, tuple(spec.word(src)), tuple(spec.word(dst)), {})


def random_morphism(spec: CategorySpec, src, dst, rng: np.random.Generator
                    ) -> Morphism:
    src = tuple(spec.word(src))
    dst = tuple(spec.word(dst))
    ds, dt = tree_dims(spec, src), tree_dims(spec, dst)
    blocks = {}
    for k in sorted(set(ds) & set(dt)):
        blocks[k] = (rng.standard_normal((dt[k], ds[k]))
                     + 1j * rng.standard_normal((dt[k], ds[k])))
    return Morphism(spec, src, dst, blocks)


def compose(g: Morphism, f: Morphism) -> Morphism:
    """g after f."""
    if f.spec is not g.spec:
        raise ShapeMismatch("morphisms from different categories")
    if f.dst != g.src or f.dst_shape != g.src_shape:
        raise ShapeMismatch(f"cannot compose {g.src} after {f.dst}")
    blocks = {}
    for k in set(f.blocks) & set(g.blocks):
        blocks[k] = g.blocks[k] @ f.blocks[k]
    return Morphism(f.spec, f.src, g.dst, blocks, f.src_shape, g.dst_shape)


def tensor(f: Morphism, g: Morphism) -> Morphism:
    """Horizontal juxtaposition, via recoupling into the canonical basis."""
    if f.spec is not g.spec:
        raise ShapeMismatch("morphisms from different categories")
    if f.src_shape is not None or f.dst_shape is not None \
            or g.src_shape is not None or g.dst_shape is not None:
        raise ShapeMismatch("tensor requires canonical (left-nested) expressions")
    spec = f.spec
    src = f.src + g.src
    dst = f.dst + g.dst
    fac_src = factor(spec, src, len(f.src))
    fac_dst = factor(spec, dst, len(f.dst))
    blocks = {}
    for k in set(fac_src) & set(fac_dst):
        basis_s, U_s = fac_src[k]
        basis_d, _ = fac_dst[k]
        M = np.zeros((len(basis_d), len(basis_s)), dtype=complex)
        pos_d = {}
        for r, key in enumerate(basis_d):
            pos_d[key] = r
        for cidx, (i, j, ia, ic, nu) in enumerate(basis_s):
            fb = f.blocks.get(i)
            gb = g.blocks.get(j)
            if fb is None or gb is None:
                continue
            for r in range(fb.shape[0]):
                fv = fb[r, ia]
                if fv == 0:
                    continue
                for s in range(gb.shape[0]):
                    gv = gb[s, ic]
                    if gv == 0:
                        continue
                    M[pos_d[(i, j, r, s, nu)], cidx] = fv * gv
        block = _factor_inv(spec, dst, len(f.dst), k) @ M @ U_s
        if block.size:
            blocks[k] = block
    return Morphism(spec, src, dst, blocks)


# ---------------------------------------------------------------------------
# duality: cups, caps, bends

def _bend_scalars(spec: CategorySpec):
    """Solve the cup/cap normalization: zig-zags exact, loop(a) = d(a)."""
    cached = spec._cache.get("bend_scalars")
    if cached is not None:
        return cached
    n = spec.n_labels
    d = spec.pivotal.d
    u = np.zeros(n, dtype=complex)
    v = np.zeros(n, dtype=complex)

    def raw_cup(a):
        return Morphism(spec, (), (a, spec.dual(a)),
                        {spec.unit: np.array([[1.0]], dtype=complex)})

    def raw_cap(a):
        return Morphism(spec, (spec.dual(a), a), (),
                        {spec.unit: np.array([[1.0]], dtype=complex)})

    zeta = np.zeros(n, dtype=complex)
    for a in range(n):
        z = compose(tensor(identity(spec, [a]), raw_cap(a)),
                    tensor(raw_cup(a), identity(spec, [a])))
        zeta[a] = z.block(a)[0, 0]

    done = set()
    for a in range(n):
        if a in done:
            continue
        astar = spec.dual(a)
        if astar == a:
            res = abs(d[a] * zeta[a] - 1)
            if res > 100 * spec.tol:
                raise ConsistencyError("zigzag", float(res),
                                       f"zig-zag inconsistent at {spec.labels[a].id}")
            u[a] = np.sqrt(d[a])
            v[a] = d[a] / u[a]
            done.add(a)
        else:
            res = abs(d[a] ** 2 * zeta[a] * zeta[astar] - 1)
            if res > 100 * spec.tol:
                raise ConsistencyError("zigzag", float(res),
                                       f"zig-zag inconsistent at {spec.labels[a].id}")
            u[a] = np.sqrt(abs(d[a]))
            v[astar] = d[a] / u[a]
            v[a] = 1.0 / (zeta[a] * u[a])
            u[astar] = d[a] / v[a]
            done.update((a, astar))
    spec._cache["bend_scalars"] = (u, v)

    # the second zig-zag must now also hold; verify before first use
    for a in range(n):
        z1 = compose(tensor(cap(spec, spec.dual(a)), identity(spec, [a])),
                     tensor(identity(spec, [a]), cup(spec, spec.dual(a))))
        res = float(np.abs(z1.block(a) - np.eye(1)).max())
        if res > 100 * spec.tol:
            spec._cache.pop("bend_scalars")
            raise ConsistencyError("zigzag", res,
                                   f"left zig-zag fails at {spec.labels[a].id}")
    return u, v


def cup(spec: CategorySpec, a) -> Morphism:
    """Creation ``1 -> a (x) a*`` in the normalized gauge."""
    a = spec.word([a])[0]
    u, _ = _bend_scalars(spec)
    return Morphism(spec, (), (a, spec.dual(a)),
                    {spec.unit: np.array([[u[a]]], dtype=complex)})


def cap(spec: CategorySpec, a) -> Morphism:
    """Annihilation ``a* (x) a -> 1`` in the normalized gauge."""
    a = spec.word([a])[0]
    _, v = _bend_scalars(spec)
    return Morphism(spec, (spec.dual(a), a), (),
                    {spec.unit: np.array([[v[a]]], dtype=complex)})


def cup_word(spec: CategorySpec, word) -> Morphism:
    """Creation ``1 -> word ++ word_dual`` built from nested single cups."""
    word = tuple(spec.word(word))
    if not word:
        return identity(spec, ())
    a, rest = word[0], word[1:]
    inner = tensor(identity(spec, [a]),
                   tensor(cup_word(spec, rest), identity(spec, [spec.dual(a)])))
    return compose(inner, cup(spec, a))


def cap_word(spec: CategorySpec, word) -> Morphism:
    """Annihilation ``word_dual ++ word -> 1``."""
    word = tuple(spec.word(word))
    if not word:
        return identity(spec, ())
    a, rest = word[0], word[1:]
    inner = tensor(identity(spec, spec.dual_word(rest)),
                   tensor(cap(spec, a), identity(spec, rest)))
    return compose(cap_word(spec, rest), inner)


def bend_right(f: Morphism, n: int = 1) -> Morphism:
    """``Hom(X ++ Y, Z) -> Hom(X, Z ++ Y*)``, bending the last ``n`` source letters."""
    spec = f.spec
    if n > len(f.src):
        raise ShapeMismatch("not enough source letters to bend")
    X, Y = f.src[:len(f.src) - n], f.src[len(f.src) - n:]
    return compose(tensor(f, identity(spec, spec.dual_word(Y))),
                   tensor(identity(spec, X), cup_word(spec, Y)))


def unbend_right(g: Morphism, n: int = 1) -> Morphism:
    """Inverse of :func:`bend_right`: ``Hom(X, Z ++ Y*) -> Hom(X ++ Y, Z)``."""
    spec = g.spec
    if n > len(g.dst):
        raise ShapeMismatch("not enough target letters to unbend")
    Z, Yd = g.dst[:len(g.dst) - n], g.dst[len(g.dst) - n:]
    Y = spec.dual_word(Yd)
    return compose(tensor(identity(spec, Z), cap_word(spec, Y)),
                   tensor(g, identity(spec, Y)))


def bend_left(f: Morphism, n: int = 1) -> Morphism:
    """``Hom(X ++ Y, Z) -> Hom(Y, X* ++ Z)``, bending the first ``n`` source letters."""
    spec = f.spec
    if n > len(f.src):
        raise ShapeMismatch("not enough source letters to bend")
    X, Y = f.src[:n], f.src[n:]
    Xd = spec.dual_word(X)
    return compose(tensor(identity(spec, Xd), f),
                   tensor(cup_word(spec, Xd), identity(spec, Y)))


def unbend_left(g: Morphism, n: int = 1) -> Morphism:
    """Inverse of :func:`bend_left`: ``Hom(Y, X* ++ Z) -> Hom(X ++ Y, Z)``."""
    spec = g.spec
    if n > len(g.dst):
        raise ShapeMismatch("not enough target letters to unbend")
    Xd, Z = g.dst[:n], g.dst[n:]
    X = spec.dual_word(Xd)
    return compose(tensor(cap_word(spec, Xd), identity(spec, Z)),
                   tensor(identity(spec, X), g))


# ---------------------------------------------------------------------------
# braiding

def braid(spec: CategorySpec, a, b, under: bool = False) -> Morphism:
    """The elementary crossing ``a (x) b -> b (x) a`` (over unless ``under``)."""
    a = spec.word([a])[0]
    b = spec.word([b])[0]
    if spec.R is None:
        raise NotBraided(f"category {spec.name!r} has no R-symbols")
    N = spec.rules.N
    blocks = {c: braid_coeff(spec, a, b, c, under)
              for c in range(spec.n_labels) if N[a, b, c]}
    return Morphism(spec, (a, b), (b, a), blocks)


def braid_word(spec: CategorySpec, A, B, under: bool = False) -> Morphism:
    """``A ++ B -> B ++ A`` passing A over B (or under), one crossing at a time."""
    A = tuple(spec.word(A))
    B = tuple(spec.word(B))
    if not A or not B:
        return identity(spec, A + B)
    if len(A) == 1:
        if len(B) == 1:
            return braid(spec, A[0], B[0], under)
        head = tensor(braid(spec, A[0], B[0], under), identity(spec, B[1:]))
        rest = tensor(identity(spec, B[:1]), braid_word(spec, A, B[1:], under))
        return compose(rest, head)
    first = tensor(identity(spec, A[:1]), braid_word(spec, A[1:], B, under))
    last = tensor(braid_word(spec, A[:1], B, under), identity(spec, A[1:]))
    return compose(last, first)


# ---------------------------------------------------------------------------
# traces

def trace(f: Morphism) -> complex:
    """Spherical trace: sum over charges of d(k) tr(block_k)."""
    if f.src != f.dst:
        raise ShapeMismatch("trace needs an endomorphism")
    return complex(sum(f.spec.pivotal.d[k] * np.trace(b)
                       for k, b in f.blocks.items()))


def trace_right(f: Morphism) -> complex:
    """Trace by closing all strands to the right with explicit bends."""
    spec = f.spec
    Ad = spec.dual_word(f.src)
    closed = compose(cap_word(spec, Ad),
                     compose(tensor(f, identity(spec, Ad)), cup_word(spec, f.src)))
    return complex(closed.block(spec.unit)[0, 0])


def trace_left(f: Morphism) -> complex:
    """Trace by closing all strands to the left."""
    spec = f.spec
    Ad = spec.dual_word(f.src)
    closed = compose(cap_word(spec, f.src),
                     compose(tensor(identity(spec, Ad), f), cup_word(spec, Ad)))
    return complex(closed.block(spec.unit)[0, 0])


def ptrace_left(m: Morphism, n: int) -> Morphism:
    """Close the first ``n`` strands of ``m`` off to the left."""
    spec = m.spec
    if m.src[:n] != m.dst[:n]:
        raise ShapeMismatch("partial trace needs matching closed strands")
    W1 = m.src[:n]
    W1d = spec.dual_word(W1)
    W2, W2p = m.src[n:], m.dst[n:]
    step = compose(tensor(identity(spec, W1d), m),
                   tensor(cup_word(spec, W1d), identity(spec, W2)))
    return compose(tensor(cap_word(spec, W1), identity(spec, W2p)), step)


# ---------------------------------------------------------------------------
# resolutions of the identity

def basis_injection(spec: CategorySpec, X, k: int, t: int) -> Morphism:
    """The ``t``-th canonical tree of ``X`` at charge ``k``, as ``[k] -> X``."""
    X = tuple(spec.word(X))
    nk = tree_dims(spec, X)[k]
    col = np.zeros((nk, 1), dtype=complex)
    col[t, 0] = 1.0
    return Morphism(spec, (k,), X, {k: col})


def basis_projection(spec: CategorySpec, X, k: int, t: int) -> Morphism:
    """Dual of :func:`basis_injection` under the composition pairing."""
    X = tuple(spec.word(X))
    nk = tree_dims(spec, X)[k]
    row = np.zeros((1, nk), dtype=complex)
    row[0, t] = 1.0
    return Morphism(spec, X, (k,), {k: row})


def decompose_resolution(spec: CategorySpec, A, channel=None):
    """Pairs ``(R, b, b*)`` with ``b* . b = id_R`` and ``sum b . b* = id_A``.

    ``channel`` restricts the output to one simple charge.
    """
    A = tuple(spec.word(A))
    out = []
    for k, dim in sorted(tree_dims(spec, A).items()):
        if channel is not None and k != channel:
            continue
        for t in range(dim):
            out.append((k, basis_injection(spec, A, k, t),
                        basis_projection(spec, A, k, t)))
    return out


def dual_decompose_check(spec: CategorySpec, X, S) -> float:
    """Residual of the weighted bent resolution against ``d(S) id``.

    Both sides live in ``End(X ++ [S])``; the left side sums, over simple T
    and dual bases of ``Hom(T, X* ++ T')``-type spaces, the bent pair
    weighted by d(T).
    """
    X = tuple(spec.word(X))
    S = spec.word([S])[0]
    Xd = spec.dual_word(X)
    lhs = zero_morphism(spec, X + (S,), X + (S,))
    for T in range(spec.n_labels):
        pairs = decompose_resolution(spec, Xd + (T,), channel=S)
        if not pairs:
            continue
        dT = spec.pivotal.d[T]
        for _, b, bstar in pairs:
            top = compose(tensor(cap_word(spec, Xd), identity(spec, (T,))),
                          tensor(identity(spec, X), b))
            bottom = compose(tensor(identity(spec, X), bstar),
                             tensor(cup_word(spec, X), identity(spec, (T,))))
            lhs = lhs + dT * compose(bottom, top)
    rhs = spec.pivotal.d[S] * identity(spec, X + (S,))
    return (lhs - rhs).norm()


# ---------------------------------------------------------------------------
# serialization

def morphism_to_json(m: Morphism) -> dict:
    """Portable form: words as label ids, blocks row-major with [re, im] pairs."""
    spec = m.spec
    return {
        "source": spec.word_ids(m.src),
        "target": spec.word_ids(m.dst),
        "blocks": {spec.labels[k].id: [[[v.real, v.imag] for v in row]
                                       for row in blk]
                   for k, blk in sorted(m.blocks.items())},
    }


def morphism_from_json(spec: CategorySpec, doc: dict) -> Morphism:
    src = tuple(spec.word(doc["source"]))
    dst = tuple(spec.word(doc["target"]))
    ds, dt = tree_dims(spec, src), tree_dims(spec, dst)
    blocks = {}
    for kid, rows in doc["blocks"].items():
        k = spec.index(kid)
        blk = np.array([[complex(re, im) for re, im in row] for row in rows],
                       dtype=complex).reshape(dt.get(k, 0), ds.get(k, 0))
        blocks[k] = blk
    return Morphism(spec, src, dst, blocks)


# ---------------------------------------------------------------------------
# re-association moves on explicit bracketings

def left_comb(n: int):
    """The canonical strictly left-nested bracketing of ``n`` leaves."""
    if n == 0:
        return ()
    shape = 0
    for i in range(1, n):
        shape = (shape, i)
    return shape


def _internal_nodes(shape, path=()):
    if not isinstance(shape, tuple) or shape == ():
        return []
    nodes = [path]
    nodes += _internal_nodes(shape[0], path + (0,))
    nodes += _internal_nodes(shape[1], path + (1,))
    return nodes


def _shape_basis(spec, word, shape):
    if not isinstance(shape, tuple) or shape == ():
        if shape == ():
            return {spec.unit: [()]}
        return {word[shape]: [()]}
    N = spec.rules.N
    b1 = _shape_basis(spec, word, shape[0])
    b2 = _shape_basis(spec, word, shape[1])
    out = {}
    for k in range(spec.n_labels):
        labs = [(i, j, t1, t2, mu)
                for i in sorted(b1) for j in sorted(b2)
                for t1 in b1[i] for t2 in b2[j]
                for mu in range(N[i, j, k])]
        if labs:
            out[k] = labs
    return out


def _subtree_at(shape, path):
    for step in path:
        if not isinstance(shape, tuple):
            raise BadPosition("path leaves the tree")
        shape = shape[step]
    return shape


def _replace_at(shape, path, new):
    if not path:
        return new
    left, right = shape
    if path[0] == 0:
        return (_replace_at(left, path[1:], new), right)
    return (left, _replace_at(right, path[1:], new))


def _assoc_forward(spec, word, shape, path):
    """Single move ``((AB)C) -> (A(BC))`` at ``path``; coordinate matrices per charge."""
    node = _subtree_at(shape, path)
    if not isinstance(node, tuple) or not isinstance(node[0], tuple) or node[0] == ():
        raise BadPosition("left child at the move position is not internal")
    new_node = (node[0][0], (node[0][1], node[1]))
    new_shape = _replace_at(shape, path, new_node)

    old_basis = _shape_basis(spec, word, shape)
    new_basis = _shape_basis(spec, word, new_shape)
    mats = {}
    for k in old_basis:
        new_pos = {lab: i for i, lab in enumerate(new_basis.get(k, []))}
        M = np.zeros((len(new_pos), len(old_basis[k])), dtype=complex)
        for col, lab in enumerate(old_basis[k]):
            for coeff, new_lab in _assoc_apply(spec, lab, k, path):
                M[new_pos[new_lab], col] += coeff
        mats[k] = M
    return new_shape, mats


def _assoc_apply(spec, lab, chan, path):
    if path:
        i, j, t1, t2, mu = lab
        if path[0] == 0:
            return [(c, (i, j, nt, t2, mu))
                    for c, nt in _assoc_apply(spec, t1, i, path[1:])]
        return [(c, (i, j, t1, nt, mu))
                for c, nt in _assoc_apply(spec, t2, j, path[1:])]
    e, z, labE, labz, be = lab
    x, y, labx, laby, al = labE
    F, lhs, rhs = spec.F.matrix(spec, x, y, z, chan)
    row = lhs.index((e, al, be))
    out = []
    for col, (w, ga, de) in enumerate(rhs):
        val = F[row, col]
        if val != 0:
            out.append((val, (x, w, labx, (y, z, laby, labz, ga), de)))
    return out


def f_move(m: Morphism, position: int, inverse: bool = False) -> Morphism:
    """Re-express ``m`` with the target bracketing re-associated at ``position``.

    ``position`` indexes the internal nodes of the current target bracketing
    in preorder.  The forward move turns ``((AB)C)`` into ``(A(BC))``; the
    returned blocks are the stored-F contraction applied to the rows of
    ``m``.  ``f_move(m, p, True)`` inverts ``f_move(m', p)``.
    """
    spec = m.spec
    shape = m.dst_shape if m.dst_shape is not None else left_comb(len(m.dst))
    nodes = _internal_nodes(shape)
    if not 0 <= position < len(nodes):
        raise BadPosition(f"no internal node {position} in {shape}")
    path = nodes[position]
    if not inverse:
        new_shape, mats = _assoc_forward(spec, m.dst, shape, path)
        blocks = {k: mats[k] @ b for k, b in m.blocks.items()}
    else:
        node = _subtree_at(shape, path)
        if not isinstance(node, tuple) or not isinstance(node[1], tuple) or node[1] == ():
            raise BadPosition("right child at the move position is not internal")
        new_node = ((node[0], node[1][0]), node[1][1])
        new_shape = _replace_at(shape, path, new_node)
        back_shape, mats = _assoc_forward(spec, m.dst, new_shape, path)
        assert back_shape == shape
        blocks = {k: np.linalg.solve(mats[k], b) if mats[k].size else b
                  for k, b in m.blocks.items()}
    new_shape_norm = None if new_shape == left_comb(len(m.dst)) else new_shape
    return Morphism(spec, m.src, m.dst, blocks, m.src_shape, new_shape_norm)
