"""Drinfeld-centre objects realized as tube idempotents.

A half-braiding ``tau`` on a word X gives the graded idempotent with
grade-S component ``d(S)/D2 * tau_S``; its image in the idempotent
completion of the tube category is the centre object ``(X, tau)``.  With a
braiding, the two-sided crossing pattern on ``I ++ J`` produces the family
``eps_xy(I, J)`` whose Hom-spaces, orthogonality and completeness encode
whether the category is modular.  Conversely, arbitrary idempotents are
produced by block-decomposing the tube algebra and their half-braidings
are read off the grades of the tube morphisms in their image.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .category import CategorySpec, word_channels
from .diagrams import (Morphism, basis_projection, cap_word, compose, cup_word,
                       decompose_resolution, identity, ptrace_left,
                       braid_word, tensor, trace, tree_dims, zero_morphism)
from .errors import (DecompositionFailed, NotBraided, NotHalfBraiding,
                     NotModular, ShapeMismatch, SplitFailed)
from .tube import (TubeAlgebra, TubeMorphism, _compose_matrix, c_morphism_inv,
                   random_tube_morphism, tube_compose, tube_from_vector,
                   tube_hom_dim, tube_layout)

__all__ = [
    "HalfBraiding", "CentreIdempotent", "ModularData",
    "half_braiding_residual", "braiding_half_braiding",
    "eps_from_half_braiding", "eps_xy", "handle_slide_check",
    "hom_between_idempotents", "idempotent_hom_dim", "completeness_check",
    "s_matrix", "t_matrix", "modular_data", "is_modular",
    "killing_ring_eval", "slice_checks", "TubeSplit", "split_tube_algebra",
    "decompose_tube_algebra", "half_braiding_from_idempotent",
]


@dataclass
class HalfBraiding:
    """A half-braiding on a tensor word: per simple s, ``tau_s : s ++ X -> X ++ s``."""
    object: tuple
    tau: dict

    def spec(self) -> CategorySpec:
        return next(iter(self.tau.values())).spec


def tau_word(hb: HalfBraiding, G) -> Morphism:
    """Extend the half-braiding to a word by multiplicativity."""
    spec = hb.spec()
    G = tuple(spec.word(G))
    X = hb.object
    if not G:
        return identity(spec, X)
    head, rest = G[0], G[1:]
    inner = compose(tensor(hb.tau[head], identity(spec, rest)),
                    tensor(identity(spec, (head,)), tau_word(hb, rest)))
    return inner


def half_braiding_residual(hb: HalfBraiding) -> float:
    """Max violation of the defining identities of a half-braiding.

    Checks that tau at the unit is the identity, that each tau_s is
    invertible channel-wise, and multiplicativity combined with naturality:
    sliding any fusion vertex ``t -> g h`` through tau.
    """
    spec = hb.spec()
    X = hb.object
    n = spec.n_labels
    worst = 0.0
    unit_tau = hb.tau[spec.unit]
    pad_id = Morphism(spec, (spec.unit,) + X, X + (spec.unit,),
                      dict(identity(spec, X).blocks))
    worst = max(worst, (unit_tau - pad_id).norm())
    for s, m in hb.tau.items():
        for k in m.channels():
            blk = m.block(k)
            if blk.shape[0] != blk.shape[1]:
                return float("inf")
            if blk.size:
                sv = np.linalg.svd(blk, compute_uv=False)
                if sv.min() < spec.tol:
                    worst = max(worst, 1.0)
    for g in range(n):
        for h in range(n):
            tgh = tau_word(hb, (g, h))
            for t, b, _ in decompose_resolution(spec, (g, h)):
                lhs = compose(tgh, tensor(b, identity(spec, X)))
                rhs = compose(tensor(identity(spec, X), b), hb.tau[t])
                worst = max(worst, (lhs - rhs).norm())
    return worst


@dataclass
class CentreIdempotent:
    """A tube idempotent with centre-object metadata.

    ``mults[i]`` is the multiplicity of the simple i in the underlying
    object, measured as the rank of the idempotent acting on
    ``Hom_TC([i], X)``.
    """
    eps: TubeMorphism
    mults: dict
    origin: str
    hb: HalfBraiding | None = None
    idempotency_residual: float = float("nan")
    block_size: int | None = None
    twist: complex | None = None

    @property
    def carrier(self) -> tuple:
        return self.eps.src


@dataclass
class ModularData:
    """Unnormalized S and T matrices with a non-singularity verdict."""
    S: np.ndarray
    T: np.ndarray
    singular: bool
    smin: float


# ---------------------------------------------------------------------------
# idempotents from half-braidings

def eps_from_half_braiding(hb: HalfBraiding, origin: str = "from_half_braiding",
                           mults: dict | None = None) -> CentreIdempotent:
    """The graded idempotent with grade-S component ``d(S)/D2 tau_S``.

    ``mults`` may pass the multiplicities already measured on an isomorphic
    idempotent; they are computed from the graded idempotent otherwise.
    """
    spec = hb.spec()
    res = half_braiding_residual(hb)
    if res > 1e3 * spec.tol:
        raise NotHalfBraiding(res)
    eps = _graded_idempotent(hb)
    resid = (tube_compose(eps, eps) - eps).norm()
    if mults is None:
        mults = _idempotent_mults(eps)
    return CentreIdempotent(eps=eps, mults=mults, origin=origin,
                            hb=hb, idempotency_residual=resid)


def _graded_idempotent(hb: HalfBraiding) -> TubeMorphism:
    """The tube endomorphism of the carrier with grade-S component ``d(S)/D2 tau_S``."""
    spec = hb.spec()
    D2 = spec.pivotal.D2
    return TubeMorphism.from_components(spec, hb.object, hb.object, {
        s: (spec.pivotal.d[s] / D2) * m for s, m in hb.tau.items()}).prune()


def braiding_half_braiding(spec: CategorySpec, I, J) -> HalfBraiding:
    """The half-braiding on I ++ J: cross over I, then under J."""
    if spec.R is None:
        raise NotBraided(f"category {spec.name!r} has no R-symbols")
    I = tuple(spec.word(I))
    J = tuple(spec.word(J))
    tau = {}
    for s in range(spec.n_labels):
        over = tensor(braid_word(spec, (s,), I), identity(spec, J))
        under = tensor(identity(spec, I), braid_word(spec, (s,), J, under=True))
        tau[s] = compose(under, over)
    return HalfBraiding(object=I + J, tau=tau)


def eps_xy(spec: CategorySpec, I, J) -> CentreIdempotent:
    """The idempotent realizing the centre object attached to the pair (I, J)."""
    I = tuple(spec.word(I))
    J = tuple(spec.word(J))
    ci = eps_from_half_braiding(braiding_half_braiding(spec, I, J),
                                origin=f"from_braiding_pair({I},{J})")
    return ci


def _cut(sv: np.ndarray, tol: float) -> int:
    """How many of the descending singular values ``sv`` count as non-zero."""
    return int(np.sum(sv > tol * max(1.0, sv[0]))) if sv.size else 0


def _rank(M: np.ndarray, tol: float) -> int:
    return _cut(np.linalg.svd(M, compute_uv=False), tol)


def _idempotent_mults(e: TubeMorphism) -> dict:
    spec = e.spec
    return {i: _rank(_compose_matrix(e, (i,), True), spec.tol)
            for i in range(spec.n_labels)}


def idempotent_hom_dim(e: CentreIdempotent, Y, side: str) -> int:
    """dim Hom_TC(Y, e) (side='into') or dim Hom_TC(e, Y) (side='out')."""
    eps = e.eps
    return _rank(_compose_matrix(eps, Y, side == "into"), eps.spec.tol)


def hom_between_idempotents(e1: CentreIdempotent, e2: CentreIdempotent):
    """A basis of ``{h : h = e2 . h . e1}`` inside ``Hom_TC(X1, X2)``."""
    spec = e1.eps.spec
    if e2.eps.spec is not spec:
        raise ShapeMismatch("idempotents from different categories")
    X1, X2 = e1.carrier, e2.carrier
    P = _compose_matrix(e2.eps, X1, True) @ _compose_matrix(e1.eps, X2, False)
    cols = _column_basis(P, spec.tol)
    return [tube_from_vector(spec, X1, X2, col) for col in cols.T]


def _column_basis(M: np.ndarray, tol: float) -> np.ndarray:
    """An orthonormal basis of the column space, cut as in :func:`_rank`."""
    U, sv, _ = np.linalg.svd(M, full_matrices=False)
    return U[:, :_cut(sv, tol)]


def completeness_check(idems, split: TubeSplit) -> dict:
    """Orthogonality, primitivity and the Hom-dimension count for a family.

    A family is a set of primitive orthogonal idempotents when
    ``Hom_TC(e, e')`` is one-dimensional on the diagonal and zero off it;
    it is complete when additionally, for all simple X and Y,
    ``sum_e dim(X -> e) dim(e -> Y)`` equals ``dim Hom_TC(X, Y)``.

    Every dimension is read off ``split``, the tube algebra's split into the
    centre simples Z (:func:`split_tube_algebra`), each given by a
    primitive idempotent p_Z of its lowest corner i0: ``M[a, Z] =
    dim Hom_TC(p_Z, e_a)`` is the rank of ``h -> e_a . h . p_Z`` on
    ``Hom_TC([i0], X_a)``.  By semisimplicity ``dim Hom_TC(e_a, e_b) =
    (M M^T)[a, b]`` and ``dim Hom_TC(e_a, [j]) = sum_Z M[a, Z] m_Z(j)``.
    M is made of ranks, so the result does not depend on the split's seed.
    """
    spec = idems[0].eps.spec
    n = spec.n_labels
    prims = [TubeMorphism(spec, (i0,), (i0,), p) for i0, p, _, _ in split.blocks]
    M = np.zeros((len(idems), len(prims)), dtype=int)
    for a, ea in enumerate(idems):
        left = {i: _compose_matrix(ea.eps, (i,), True)
                for i in {p.src[0] for p in prims} if ea.mults[i]}
        for z, p in enumerate(prims):
            if p.src[0] in left:
                right = _compose_matrix(p, ea.carrier, False)
                M[a, z] = _rank(left[p.src[0]] @ right, spec.tol)
    hom_dims = M @ M.T
    diag = np.diag(hom_dims)
    orthogonal = not (hom_dims - np.diag(diag)).any()
    primitive = bool((diag == 1).all())
    into = np.array([[e.mults[i] for e in idems] for i in range(n)])
    outof = M @ np.array([[m[j] for j in range(n)] for _, _, m, _ in split.blocks])
    lhs = into @ outof
    rhs = np.array([[tube_hom_dim(spec, (i,), (j,)) for j in range(n)]
                    for i in range(n)])
    complete = orthogonal and primitive and bool(np.array_equal(lhs, rhs))
    return {"complete": complete, "orthogonal": orthogonal,
            "primitive": primitive, "hom_dims": hom_dims,
            "lhs": lhs, "rhs": rhs}


# ---------------------------------------------------------------------------
# handle slide

def handle_slide_check(hb: HalfBraiding, alpha: TubeMorphism,
                       mirror: bool = False) -> float:
    """Residual of the handle-slide identity for ``eps . alpha``.

    With ``mirror=True`` checks the sibling identity for ``alpha . eps``
    instead (then ``alpha`` must map out of the carrier).
    """
    spec = hb.spec()
    X = hb.object
    D2 = spec.pivotal.D2
    eps = _graded_idempotent(hb)
    if not mirror:
        if alpha.dst != X:
            raise ShapeMismatch("alpha must map into the half-braiding carrier")
        Y = alpha.src
        lhs = tube_compose(eps, alpha)
        comps = {}
        for R in range(spec.n_labels):
            acc = zero_morphism(spec, (R,) + Y, X + (R,))
            for G, aG in alpha.components.items():
                Gd = spec.dual(G)
                s1 = tensor(identity(spec, (R,)),
                            tensor(cup_word(spec, (Gd,)), identity(spec, Y)))
                s2 = tensor(identity(spec, (R, Gd)), aG)
                s3 = tensor(tau_word(hb, (R, Gd)), identity(spec, (G,)))
                s4 = tensor(identity(spec, X + (R,)), cap_word(spec, (G,)))
                acc = acc + compose(s4, compose(s3, compose(s2, s1)))
            comps[R] = (spec.pivotal.d[R] / D2) * acc
        return (lhs - TubeMorphism.from_components(spec, Y, X, comps).prune()).norm()
    if alpha.src != X:
        raise ShapeMismatch("alpha must map out of the half-braiding carrier")
    Y = alpha.dst
    lhs = tube_compose(alpha, eps)
    comps = {}
    for R in range(spec.n_labels):
        acc = zero_morphism(spec, (R,) + X, Y + (R,))
        for G, bG in alpha.components.items():
            Gd = spec.dual(G)
            s1 = tensor(cup_word(spec, (G,)), identity(spec, (R,) + X))
            s2 = tensor(identity(spec, (G,)), tau_word(hb, (Gd, R)))
            s3 = tensor(bG, identity(spec, (Gd, R)))
            s4 = tensor(identity(spec, Y),
                        tensor(cap_word(spec, (Gd,)), identity(spec, (R,))))
            acc = acc + compose(s4, compose(s3, compose(s2, s1)))
        comps[R] = (spec.pivotal.d[R] / D2) * acc
    return (lhs - TubeMorphism.from_components(spec, X, Y, comps).prune()).norm()


# ---------------------------------------------------------------------------
# modular data

def s_matrix(spec: CategorySpec, dual_strands: bool = False) -> np.ndarray:
    """Unnormalized S-matrix: quantum traces of the double braidings."""
    if spec.R is None:
        raise NotBraided(f"category {spec.name!r} has no R-symbols")
    n = spec.n_labels
    S = np.zeros((n, n), dtype=complex)
    for I in range(n):
        for J in range(n):
            a, b = (spec.dual(I), spec.dual(J)) if dual_strands else (I, J)
            hopf = compose(braid_word(spec, (b,), (a,)),
                           braid_word(spec, (a,), (b,)))
            S[I, J] = trace(hopf)
    return S


def t_matrix(spec: CategorySpec, dual_strands: bool = False) -> np.ndarray:
    """Diagonal matrix of twist phases theta_I = tr(sigma_{I,I}) / d(I)."""
    if spec.R is None:
        raise NotBraided(f"category {spec.name!r} has no R-symbols")
    n = spec.n_labels
    theta = np.zeros(n, dtype=complex)
    for I in range(n):
        a = spec.dual(I) if dual_strands else I
        theta[I] = trace(braid_word(spec, (a,), (a,))) / spec.pivotal.d[a]
    return np.diag(theta)


def modular_data(spec: CategorySpec) -> ModularData:
    S = s_matrix(spec)
    T = t_matrix(spec)
    sv = np.linalg.svd(S, compute_uv=False)
    tv = np.abs(np.diag(T))
    smin = float(min(sv.min(), tv.min()))
    threshold = np.sqrt(spec.tol) * max(1.0, float(sv.max()))
    return ModularData(S=S, T=T, singular=bool(smin <= threshold), smin=smin)


def is_modular(spec: CategorySpec) -> bool:
    """True iff the modular data is non-singular."""
    return not modular_data(spec).singular


def killing_ring_eval(spec: CategorySpec, R) -> complex:
    """Value of the d-weighted ring of all simples around an R-strand.

    Equals ``delta_{R,unit} D2`` exactly when the category is modular;
    non-modular inputs return whatever the diagram evaluates to.
    """
    if spec.R is None:
        raise NotBraided(f"category {spec.name!r} has no R-symbols")
    R = spec.word([R])[0]
    total = 0.0 + 0.0j
    for S in range(spec.n_labels):
        ring = compose(braid_word(spec, (R,), (S,)), braid_word(spec, (S,), (R,)))
        closed = ptrace_left(ring, 1)
        total += spec.pivotal.d[S] * closed.block(R)[0, 0]
    return complex(total)


def slice_checks(spec: CategorySpec, n_instances: int = 20,
                 seed: int = 0x5EED) -> dict:
    """Residuals of the horizontal and vertical killing-ring slices.

    Both identities require modularity; the horizontal slice is checked on
    all simple pairs, the vertical one on seeded random morphisms between
    pairs of simples.
    """
    from .diagrams import random_morphism
    if spec.R is None:
        raise NotBraided(f"category {spec.name!r} has no R-symbols")
    if not is_modular(spec):
        raise NotModular(f"category {spec.name!r} has singular modular data")
    n = spec.n_labels
    D2 = spec.pivotal.D2
    d = spec.pivotal.d
    rng = np.random.default_rng(seed)

    def ring_around(W: tuple) -> Morphism:
        acc = zero_morphism(spec, W, W)
        for S in range(n):
            m = compose(braid_word(spec, W, (S,)), braid_word(spec, (S,), W))
            acc = acc + d[S] * ptrace_left(m, 1)
        return acc

    worst_h = 0.0
    for x in range(n):
        for y in range(n):
            W = (x, y)
            lhs = ring_around(W)
            rhs = zero_morphism(spec, W, W)
            for T in range(n):
                Td = spec.dual(T)
                left_pairs = decompose_resolution(spec, (x,), channel=T)
                right_pairs = decompose_resolution(spec, (y,), channel=Td)
                if not left_pairs or not right_pairs:
                    continue
                for _, b, bstar in left_pairs:
                    for _, c, cstar in right_pairs:
                        up = compose(tensor(b, c), cup_word(spec, (T,)))
                        down = compose(cap_word(spec, (Td,)), tensor(bstar, cstar))
                        rhs = rhs + (D2 / d[T]) * compose(up, down)
            worst_h = max(worst_h, (lhs - rhs).norm())

    worst_v = 0.0
    for _ in range(n_instances):
        x, y, a, b = rng.integers(0, n, size=4)
        X, Y, A, B = (int(x),), (int(y),), (int(a),), (int(b),)
        alpha = random_morphism(spec, X + Y, A + B, rng)
        if not alpha.blocks:
            continue
        lhs = zero_morphism(spec, X + Y, A + B)
        for S in range(n):
            Sd = spec.dual(S)
            q1 = tensor(cup_word(spec, (S,)), identity(spec, X + Y))
            q2 = tensor(identity(spec, (S,)),
                        tensor(braid_word(spec, (Sd,), X), identity(spec, Y)))
            q3 = tensor(identity(spec, (S,) + X),
                        braid_word(spec, (Sd,), Y, under=True))
            q4 = tensor(identity(spec, (S,)), tensor(alpha, identity(spec, (Sd,))))
            q5 = tensor(identity(spec, (S,) + A), braid_word(spec, B, (Sd,)))
            q6 = tensor(identity(spec, (S,)),
                        tensor(braid_word(spec, A, (Sd,), under=True),
                               identity(spec, B)))
            q7 = tensor(cap_word(spec, (Sd,)), identity(spec, A + B))
            term = q1
            for step in (q2, q3, q4, q5, q6, q7):
                term = compose(step, term)
            lhs = lhs + d[S] * term
        rhs = zero_morphism(spec, X + Y, A + B)
        for T in range(n):
            Td = spec.dual(T)
            b_pairs = decompose_resolution(spec, B, channel=T)
            c_pairs = decompose_resolution(spec, Y, channel=T)
            for _, bb, bbstar in b_pairs:
                for _, cc, ccstar in c_pairs:
                    t1 = tensor(identity(spec, X),
                                tensor(cup_word(spec, (T,)), identity(spec, Y)))
                    t2 = tensor(tensor(identity(spec, X), cc),
                                tensor(identity(spec, (Td,)), ccstar))
                    t3 = tensor(alpha, identity(spec, (Td, T)))
                    t4 = tensor(tensor(identity(spec, A), bbstar),
                                tensor(identity(spec, (Td,)), bb))
                    t5 = tensor(identity(spec, A),
                                tensor(cap_word(spec, (Td,)), identity(spec, B)))
                    term = t1
                    for step in (t2, t3, t4, t5):
                        term = compose(step, term)
                    rhs = rhs + (D2 / d[T]) * term
        worst_v = max(worst_v, (lhs - rhs).norm())
    return {"horizontal_residual": worst_h, "vertical_residual": worst_v,
            "max_residual": max(worst_h, worst_v)}


# ---------------------------------------------------------------------------
# block decomposition of the tube algebra

def _cluster(values: np.ndarray, gap: float):
    """Single-linkage clusters of complex values at the given radius.

    Returns the member indices of each cluster, ordered by the cluster mean,
    and whether every two cluster means are more than ten radii apart.
    """
    m = len(values)
    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(m):
        for j in range(i + 1, m):
            if abs(values[i] - values[j]) <= gap:
                parent[find(i)] = find(j)
    groups: dict = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    means = {r: np.mean(values[c]) for r, c in groups.items()}
    order = sorted(groups, key=lambda r: (means[r].real, means[r].imag))
    ok = all(abs(means[r] - means[s]) > 10 * gap
             for k, r in enumerate(order) for s in order[:k])
    return [groups[r] for r in order], ok


def _left(u: np.ndarray, blk: np.ndarray) -> np.ndarray:
    """The matrix of ``v -> u . v`` for u in the first corner of ``blk``."""
    return np.einsum("x,xyz->zy", u, blk)


def _sandwich(f: np.ndarray, e: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The matrix of ``v -> f . v . e`` on a diagonal corner, B its block."""
    return _left(f, B) @ np.einsum("y,xyz->zx", e, B)


def _corner_primitives(A: TubeAlgebra, i: int, rng: np.random.Generator) -> list:
    """Primitive idempotents of the corner algebra A_ii that sum to its unit.

    A_ii is semisimple, so the left action of a generic element a is
    diagonalizable, and the spectral projector of each eigenvalue is the
    left action of a primitive idempotent of A_ii: it is that projector
    applied to the unit of A_ii.
    """
    spec = A.spec
    cut = 1e3 * spec.tol
    B = A.blocks[(i, i, i)]
    unit = A.unit[A.corner_slices[(i, i)]]
    m = len(unit)
    for _ in range(8):
        a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        vals, V = np.linalg.eig(_left(a, B))
        clusters, ok = _cluster(vals, cut * max(1.0, float(np.abs(vals).max())))
        if not ok:
            continue
        w = np.linalg.solve(V, unit)
        prims = [V[:, c] @ w[c] for c in clusters]
        if (np.abs(sum(prims) - unit).max() <= cut
                and all(np.abs(_left(e, B) @ e - e).max() <= cut
                        # primitive: e A_ii e is one-dimensional
                        and _rank(_sandwich(e, e, B), spec.tol) == 1
                        for e in prims)):
            return prims
    raise DecompositionFailed(
        f"corner {spec.labels[i].id}: no split into primitive idempotents "
        f"separated at {cut}")


@dataclass(frozen=True)
class TubeSplit:
    """The blocks of A that :func:`split_tube_algebra` found at ``seed``."""
    A: TubeAlgebra
    seed: int
    blocks: list


def split_tube_algebra(A: TubeAlgebra, seed: int) -> TubeSplit:
    """The minimal blocks of A, as ``(i0, e, mults, twist)``.

    e is a primitive idempotent of the lowest diagonal corner A_{i0 i0}
    that the block meets, from one seeded eigensolve per corner, and
    ``mults[j]`` is the rank of e's left action on corner (j, i0): the
    multiplicity of the simple j in the centre simple.  Two primitives of
    one corner lie in one block iff ``e' A_ii e`` is non-zero.  For the
    rotation t of End_TC([i0]) (:func:`c_morphism_inv` of ``(i0,)``),
    ``e t e = lambda e`` and the twist is ``theta = conj(lambda)``.
    """
    spec = A.spec
    n = spec.n_labels
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        B = A.blocks[(i, i, i)]
        prims = _corner_primitives(A, i, rng)
        rotation = _left(c_morphism_inv(spec, (i,), ()).v, B)
        kept = []
        for e in prims:
            mults = {j: _rank(_left(e, A.blocks[(j, i, i)]), spec.tol)
                     if (j, i, i) in A.blocks else 0 for j in range(n)}
            if any(mults[j] for j in range(i)) or any(
                    _rank(_sandwich(f, e, B), spec.tol) for f in kept):
                continue
            kept.append(e)
            ete = _left(e, B) @ (rotation @ e)
            twist = complex(np.conj((e.conj() @ ete) / (e.conj() @ e)))
            out.append((i, e, mults, twist))
        if len(prims) != sum(m[i] for _, _, m, _ in out):
            raise DecompositionFailed(
                f"corner {spec.labels[i].id}: the blocks do not account for its "
                f"{len(prims)} primitive idempotents")
    if sum(sum(m.values()) ** 2 for _, _, m, _ in out) != A.dim:
        raise DecompositionFailed("block sizes do not resolve the algebra dimension")
    return TubeSplit(A, seed, out)


def decompose_tube_algebra(split: TubeSplit) -> list:
    """The blocks of ``split`` as canonical centre idempotents.

    Each is moved onto a word carrier by random tubes drawn at the split's
    seed, and returned in the normal form of its extracted half-braiding.
    """
    return [_block_normal_form(split.A.spec, *block, seed=split.seed)
            for block in split.blocks]


def _block_normal_form(spec: CategorySpec, i0: int, e: np.ndarray, mults: dict,
                       twist: complex, seed: int) -> CentreIdempotent:
    """Transport a primitive idempotent of A_{i0 i0} to its word carrier."""
    e_t = tube_from_vector(spec, (i0,), (i0,), e)
    W = _word_with_channels(spec, mults)
    rng = np.random.default_rng(seed ^ 0xA5A5)
    for _ in range(8):
        x = tube_compose(e_t, random_tube_morphism(spec, W, (i0,), rng))
        y = tube_compose(random_tube_morphism(spec, (i0,), W, rng), e_t)
        t1 = tube_compose(x, y)
        ve, vt = e_t.v, t1.v
        c = (ve.conj() @ vt) / (ve.conj() @ ve)
        if abs(c) < 1e-6 or np.abs(vt - c * ve).max() > 1e-6 * max(1, abs(c)):
            continue
        e_W = (1.0 / c) * tube_compose(y, x)
        try:    # also rejects an e_W that is not idempotent
            hb = half_braiding_from_idempotent(e_W)
        except SplitFailed:
            continue
        ci = eps_from_half_braiding(hb, origin="from_block_decomposition", mults=mults)
        ci.block_size, ci.twist = sum(mults.values()), twist
        return ci
    raise DecompositionFailed("transport onto the word carrier failed")


def _word_with_channels(spec: CategorySpec, mults: dict) -> tuple:
    """The shortest word whose channel counts realize the multiplicities."""
    want = np.array([mults.get(k, 0) for k in range(spec.n_labels)])
    for length in range(4):
        for tup in product(range(spec.n_labels), repeat=length):
            if np.array_equal(word_channels(spec, tup), want):
                return tup
    raise DecompositionFailed(
        f"no word of length < 4 realizes the underlying object {mults}")


# ---------------------------------------------------------------------------
# half-braidings from idempotents

def half_braiding_from_idempotent(e) -> HalfBraiding:
    """Read the half-braiding off the image of a full-multiplicity idempotent.

    The carrier X must realize the whole underlying object: the rank of the
    idempotent on ``Hom_TC([k], X)`` equals the number of channels of X at
    k.  Then each tree-basis ``f_a : k -> X`` is the plain part of exactly
    one ``v_a`` in that image, whose grade-s component is
    ``d(s) tau_s . (id_s (x) f_a)``; so ``tau_s`` is the sum over k and a
    of ``v_a[s] . (id_s (x) p_a) / d(s)``, with ``p_a : X -> k`` dual to f_a.
    """
    eps = e.eps if isinstance(e, CentreIdempotent) else e
    spec = eps.spec
    if eps.src != eps.dst:
        raise ShapeMismatch("idempotents live in End_TC(X)")
    X = eps.src
    if (tube_compose(eps, eps) - eps).norm() > 1e3 * spec.tol:
        raise SplitFailed("input is not idempotent at tolerance")
    tau = {s: zero_morphism(spec, (s,) + X, X + (s,)) for s in range(spec.n_labels)}
    for k, nk in sorted(tree_dims(spec, X).items()):
        cols = _column_basis(_compose_matrix(eps, (k,), True), spec.tol)
        if cols.shape[1] != nk:
            raise SplitFailed(
                f"rank {cols.shape[1]} at channel {spec.labels[k].id} does not "
                f"fill the carrier ({nk} channels)")
        off = next(o for R, _, _, _, o in tube_layout(spec, (k,), X)[0]
                   if R == spec.unit)
        iota = cols[off:off + nk]    # the plain parts: unit-grade rows
        sv = np.linalg.svd(iota, compute_uv=False)
        if sv.min() < 1e-12 * max(1.0, sv.max()) or sv.max() / sv.min() > 1e12:
            raise SplitFailed("plain part of the splitting is numerically singular")
        V = cols @ np.linalg.inv(iota)    # column a is v_a
        for a in range(nk):
            p = basis_projection(spec, X, k, a)
            v = tube_from_vector(spec, (k,), X, V[:, a])
            for s, v_s in v.components.items():
                tau[s] = tau[s] + (1.0 / spec.pivotal.d[s]) * compose(
                    v_s, tensor(identity(spec, (s,)), p))
    return HalfBraiding(object=X, tau=tau)
