"""The tube category: annular morphisms between tensor words.

A tube morphism ``X -> Y`` is an R-graded family of plain morphisms
``f_R : R ++ X -> Y ++ R`` over the simple labels R; composition stacks
annuli, which in the graded picture resolves the two grading strands into
simples through dual bases.  The endomorphism algebra of the sum of all
simples is Ocneanu's tube algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import product

import numpy as np

from .category import CategorySpec, hom_dim
from .diagrams import (Morphism, cap_word, compose, cup_word, factor,
                       identity, random_morphism, tensor, tree_basis, tree_dims,
                       zero_morphism)
from .errors import ShapeMismatch

__all__ = [
    "TubeMorphism", "TubeAlgebra",
    "tube_hom_dim", "embed", "unembed", "tube_identity", "tube_compose",
    "lift", "c_morphism", "c_morphism_inv", "tube_algebra",
    "tube_layout", "tube_to_vector", "tube_from_vector", "random_tube_morphism",
]


@dataclass
class TubeMorphism:
    """An element of ``Hom_TC(src, dst) = sum_R Hom(R ++ src, dst ++ R)``.

    ``v`` holds its :func:`tube_layout` coordinates; :meth:`component` reads
    grade R back as a plain :class:`Morphism`.  Values are immutable by
    convention: ``components`` is computed once per value.
    """
    spec: CategorySpec
    src: tuple
    dst: tuple
    v: np.ndarray

    @classmethod
    def from_components(cls, spec: CategorySpec, X, Y, comps: dict) -> "TubeMorphism":
        """The tube morphism with grade-R component ``comps[R]``; absent grades are zero."""
        X = tuple(spec.word(X))
        Y = tuple(spec.word(Y))
        entries, dim = tube_layout(spec, X, Y)
        v = np.zeros(dim, dtype=complex)
        for R, k, nr, nc, off in entries:
            b = comps[R].blocks.get(k) if R in comps else None
            if b is not None:
                v[off:off + nr * nc] = b.reshape(-1)
        return cls(spec, X, Y, v)

    @cached_property
    def components(self) -> dict:
        """The non-zero grades, ``{R: Morphism}``, each without its zero blocks."""
        blocks: dict = {}
        for R, k, nr, nc, off in tube_layout(self.spec, self.src, self.dst)[0]:
            blk = self.v[off:off + nr * nc].reshape(nr, nc)
            if np.abs(blk).max():
                blocks.setdefault(R, {})[k] = blk
        return {R: Morphism(self.spec, (R,) + self.src, self.dst + (R,), b)
                for R, b in blocks.items()}

    def component(self, R: int) -> Morphism:
        c = self.components.get(R)
        if c is not None:
            return c
        return zero_morphism(self.spec, (R,) + self.src, self.dst + (R,))

    def norm(self) -> float:
        return float(np.abs(self.v).max()) if self.v.size else 0.0

    def prune(self) -> "TubeMorphism":
        """Zero each grade whose entries are all at most ``spec.tol`` in modulus."""
        spans: dict = {}    # tube_layout lists each grade's entries contiguously
        for R, _, nr, nc, off in tube_layout(self.spec, self.src, self.dst)[0]:
            spans[R] = (spans.get(R, (off,))[0], off + nr * nc)
        v = self.v.copy()
        for a, b in spans.values():
            if np.abs(v[a:b]).max() <= self.spec.tol:
                v[a:b] = 0
        return replace(self, v=v)

    def __add__(self, other: "TubeMorphism") -> "TubeMorphism":
        if (self.spec is not other.spec or self.src != other.src
                or self.dst != other.dst):
            raise ShapeMismatch("tube morphisms are not parallel")
        return replace(self, v=self.v + other.v)

    def __sub__(self, other: "TubeMorphism") -> "TubeMorphism":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "TubeMorphism":
        return replace(self, v=scalar * self.v)

    __rmul__ = __mul__


def tube_hom_dim(spec: CategorySpec, X, Y) -> int:
    """dim Hom_TC(X, Y) = sum_R dim Hom(R ++ X, Y ++ R), counted with N."""
    return sum(hom_dim(spec, (R, *X), (*Y, R)) for R in range(spec.n_labels))


def embed(f: Morphism) -> TubeMorphism:
    """The inclusion of a plain morphism as the unit-graded tube morphism.

    The tree bases of ``unit ++ X`` and ``Y ++ unit`` are in order-preserving
    bijection with those of X and Y, so f's blocks are the unit-grade blocks.
    """
    return TubeMorphism.from_components(f.spec, f.src, f.dst, {f.spec.unit: f})


def unembed(t: TubeMorphism) -> Morphism:
    """The plain part (unit-grade component) of a tube morphism."""
    return Morphism(t.spec, t.src, t.dst, t.component(t.spec.unit).blocks)


def tube_identity(spec: CategorySpec, X) -> TubeMorphism:
    return embed(identity(spec, X))


def tube_compose(g: TubeMorphism, f: TubeMorphism) -> TubeMorphism:
    """Annular stacking, resolved into simple grades.

    Sums, over grades S of g and R of f, the :func:`lift` graded by
    ``(S, R)`` of ``(g_S (x) id_R) . (id_S (x) f_R)``; computed by
    :func:`_compose_matrix` with the single probe ``f``.
    """
    spec = f.spec
    if g.spec is not spec:
        raise ShapeMismatch("tube morphisms from different categories")
    if f.dst != g.src:
        raise ShapeMismatch(f"cannot compose {g.src} after {f.dst}")
    v = _compose_matrix(g, f.src, True, [f])[:, 0]
    return TubeMorphism(spec, f.src, g.dst, v).prune()


def lift(spec: CategorySpec, alpha: Morphism, G) -> TubeMorphism:
    """The tube morphism with grading word G determined by one plain morphism.

    ``alpha`` must live in ``Hom(G ++ X, Y ++ G)``; the result has grade-S
    component ``(id_Y (x) b*) . alpha . (b (x) id_X)`` summed over a dual
    basis of ``Hom(S, G)``.  For simple G this is injection into grade G.
    """
    G = tuple(spec.word(G))
    n = len(G)
    if alpha.src[:n] != G or alpha.dst[len(alpha.dst) - n:] != G:
        raise ShapeMismatch("alpha does not have the stated G ++ X -> Y ++ G shape")
    X = alpha.src[n:]
    Y = alpha.dst[:len(alpha.dst) - n]
    entries, dim = tube_layout(spec, X, Y)
    where = {(S, k): slice(off, off + nr * nc) for S, k, nr, nc, off in entries}
    v = np.zeros(dim, dtype=complex)
    _resolve(v, where, _conjugators(spec, G, X, Y), alpha.blocks)
    return TubeMorphism(spec, X, Y, v).prune()


def _conjugators(spec: CategorySpec, G: tuple, X: tuple, Z: tuple) -> dict:
    """Per charge k, ``(S, U, cols)`` over the trees b of ``Hom(S, G)``.

    In the left-nested basis, block k of ``b (x) id_X`` is the column
    selection ``cols`` of the trees of G ++ X that begin with b, and block k
    of ``id_Z (x) b*`` is the rows ``U`` of the factorization of Z ++ G at
    |Z| whose right-hand tree is b.  Terms with an empty side are left out.
    """
    out = {}
    for k, (basis, U) in factor(spec, Z + G, len(Z)).items():
        rows: dict = {}
        for r, (_, j, _, ic, _) in enumerate(basis):
            rows.setdefault((j, ic), []).append(r)
        cols: dict = {}
        for c, t in enumerate(tree_basis(spec, G + X).get(k, ())):
            cols.setdefault(t[:max(len(G) - 1, 0)], []).append(c)
        out[k] = [(S, U[rows[(S, ib)]], cols[b])
                  for S, bs in sorted(tree_basis(spec, G).items())
                  for ib, b in enumerate(bs) if (S, ib) in rows and b in cols]
    return out


def _resolve(v: np.ndarray, where: dict, conj: dict, blocks: dict) -> None:
    """Add to v the grades of a plain map ``G ++ X -> Z ++ G``, resolved by conj.

    ``conj`` is :func:`_conjugators` of (G, X, Z), and ``where[(S, k)]`` the
    slice of grade S, charge k in the tube_layout of ``Hom_TC(X, Z)``.
    """
    for k, blk in blocks.items():
        for T, U, cols in conj.get(k, ()):
            v[where[(T, k)]] += (U @ blk[:, cols]).ravel()


def _compose_matrix(fixed: TubeMorphism, other, left: bool, probes=None) -> np.ndarray:
    """Matrix of composing with a fixed tube morphism, in tube_layout coordinates.

    With ``left`` it is ``h -> fixed . h`` on ``Hom_TC(other, fixed.src)``,
    otherwise ``h -> h . fixed`` on ``Hom_TC(fixed.dst, other)``.  Column c
    is the image of ``probes[c]`` (default: the tube_layout basis).  Per
    grade pair (S, R) the fixed operand's whisker and the (b, b*)
    conjugators are built once; a probe adds only its own whisker.
    """
    spec = fixed.spec
    other = tuple(spec.word(other))
    X, Y, Z = (other, fixed.src, fixed.dst) if left else (fixed.src, fixed.dst, other)
    P = (X, Y) if left else (Y, Z)
    if probes is None:
        probes = [TubeMorphism(spec, *P, e)
                  for e in np.eye(tube_layout(spec, *P)[1], dtype=complex)]
    entries, dim = tube_layout(spec, X, Z)
    where = {(T, k): slice(off, off + nr * nc) for T, k, nr, nc, off in entries}
    M = np.zeros((dim, len(probes)), dtype=complex)
    probe_grades = sorted({R for p in probes for R in p.components})
    pairs = (product(sorted(fixed.components), probe_grades) if left
             else product(probe_grades, sorted(fixed.components)))
    ids = {R: identity(spec, (R,)) for R in set(fixed.components) | set(probe_grades)}
    for S, R in pairs:
        conj = _conjugators(spec, (S, R), X, Z)
        if left:    # fixed g_S (x) id_R, probe id_S (x) f_R
            whisker = tensor(fixed.components[S], ids[R])
        else:       # fixed id_S (x) f_R, probe g_S (x) id_R
            whisker = tensor(ids[S], fixed.components[R])
        for c, p in enumerate(probes):
            pc = p.components.get(R if left else S)
            if pc is None:
                continue
            mid = (compose(whisker, tensor(ids[S], pc)) if left
                   else compose(tensor(pc, ids[R]), whisker))
            _resolve(M[:, c], where, conj, mid.blocks)
    return M


def c_morphism(spec: CategorySpec, G, X) -> TubeMorphism:
    """The rotation ``G ++ X -> X ++ G`` carrying G around the back of the tube.

    Built as the lift, graded by the dual word of G, of the bent identity
    strands; no boxes appear in the underlying diagram.  Satisfies
    ``c(H, X++G) . c(G, H++X) = c(G++H, X)`` and inverts :func:`c_morphism_inv`.
    """
    G = tuple(spec.word(G))
    X = tuple(spec.word(X))
    Gd = spec.dual_word(G)
    alpha = compose(tensor(identity(spec, X), cup_word(spec, G)),
                    tensor(cap_word(spec, G), identity(spec, X)))
    return lift(spec, alpha, Gd)


def c_morphism_inv(spec: CategorySpec, G, X) -> TubeMorphism:
    """The opposite rotation ``X ++ G -> G ++ X``, graded by G itself.

    Its underlying diagram is the identity on ``G ++ X ++ G`` read as an
    element of ``Hom(G (x) (X ++ G), (G ++ X) (x) G)``.
    """
    G = tuple(spec.word(G))
    X = tuple(spec.word(X))
    return lift(spec, identity(spec, G + X + G), G)


# ---------------------------------------------------------------------------
# hom-space vectorization

def tube_layout(spec: CategorySpec, X, Y):
    """Deterministic flat layout of ``Hom_TC(X, Y)``.

    Returns ``(entries, dim)`` where entries are ``(R, k, nrows, ncols,
    offset)`` ordered by grade then channel.
    """
    X = tuple(spec.word(X))
    Y = tuple(spec.word(Y))
    key = ("tube_layout", X, Y)
    cached = spec._cache.get(key)
    if cached is not None:
        return cached
    entries = []
    off = 0
    for R in range(spec.n_labels):
        ds = tree_dims(spec, (R,) + X)
        dt = tree_dims(spec, Y + (R,))
        for k in sorted(set(ds) & set(dt)):
            entries.append((R, k, dt[k], ds[k], off))
            off += dt[k] * ds[k]
    spec._cache[key] = (entries, off)
    return entries, off


def tube_to_vector(t: TubeMorphism) -> np.ndarray:
    return t.v


def tube_from_vector(spec: CategorySpec, X, Y, v) -> TubeMorphism:
    return TubeMorphism(spec, tuple(spec.word(X)), tuple(spec.word(Y)),
                        np.asarray(v, dtype=complex))


def random_tube_morphism(spec: CategorySpec, X, Y, rng: np.random.Generator
                         ) -> TubeMorphism:
    X = tuple(spec.word(X))
    Y = tuple(spec.word(Y))
    return TubeMorphism.from_components(spec, X, Y, {
        R: random_morphism(spec, (R,) + X, Y + (R,), rng)
        for R in range(spec.n_labels)})


# ---------------------------------------------------------------------------
# the tube algebra

@dataclass
class TubeAlgebra:
    """Ocneanu's tube algebra ``End_TC(sum of all simples)`` in a fixed basis.

    A coordinate vector is the concatenation over corners (i, j) of the
    :func:`tube_layout` coordinates of ``Hom_TC([i], [j])``, which occupy
    ``corner_slices[(i, j)]``.  ``basis[x]`` is ``(i, j, R, k, r, c)``: the
    entry (r, c) of the grade-R, channel-k block of that corner.

    Only corner (j, l) times corner (i, j) is non-zero, landing in (i, l):
    ``blocks[(i, j, l)][x, y, z]`` is coordinate z of ``basis_x . basis_y``
    in those three corners, stored when all three are non-empty, as views
    into the one flat array ``structure``.  ``mult`` is the dense
    ``(dim, dim, dim)`` array, built on demand for small algebras.
    """
    spec: CategorySpec
    basis: list
    structure: np.ndarray = field(repr=False)
    unit: np.ndarray
    corner_slices: dict = field(repr=False)
    blocks: dict = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def multiply(self, u, v) -> np.ndarray:
        return self.left_mult_matrix(u) @ np.asarray(v)

    def left_mult_matrix(self, u) -> np.ndarray:
        """Column y holds ``u . basis_y``, assembled block by block."""
        cs, u = self.corner_slices, np.asarray(u)
        L = np.zeros((self.dim, self.dim), dtype=complex)
        for (i, j, l), blk in self.blocks.items():
            nx, ny, nz = blk.shape
            L[cs[(i, l)], cs[(i, j)]] += (u[cs[(j, l)]] @ blk.reshape(nx, ny * nz)
                                          ).reshape(ny, nz).T
        return L

    @property
    def mult(self) -> np.ndarray:
        return np.array([self.left_mult_matrix(e).T for e in np.eye(self.dim)])


def tube_algebra(spec: CategorySpec) -> TubeAlgebra:
    """Structure constants of the tube algebra in the deterministic basis."""
    key = "tube_algebra"
    cached = spec._cache.get(key)
    if cached is not None:
        return cached
    n = spec.n_labels
    basis = []
    corner_slices = {}
    basis_tubes = {}
    for i in range(n):
        for j in range(n):
            start = len(basis)
            entries, size = tube_layout(spec, (i,), (j,))
            for R, k, nr, nc, off in entries:
                for r in range(nr):
                    for c in range(nc):
                        basis.append((i, j, R, k, r, c))
            corner_slices[(i, j)] = slice(start, len(basis))
            basis_tubes[(i, j)] = [TubeMorphism(spec, (i,), (j,), e)
                                   for e in np.eye(size, dtype=complex)]
    blocks = {}
    for i, l, j in product(range(n), repeat=3):
        if all(basis_tubes[c] for c in ((j, l), (i, j), (i, l))):
            blocks[(i, j, l)] = np.array([
                _compose_matrix(g, (i,), True, basis_tubes[(i, j)]).T
                for g in basis_tubes[(j, l)]])
    structure = np.concatenate([b.ravel() for b in blocks.values()])
    unit = np.zeros(len(basis), dtype=complex)
    for i in range(n):
        unit[corner_slices[(i, i)]] = tube_identity(spec, (i,)).v
    structure.flags.writeable = False
    unit.flags.writeable = False
    ends = np.cumsum([b.size for b in blocks.values()])
    blocks = {t: structure[e - b.size:e].reshape(b.shape)
              for (t, b), e in zip(blocks.items(), ends)}
    algebra = TubeAlgebra(spec, basis, structure, unit, corner_slices, blocks)
    spec._cache[key] = algebra
    return algebra
