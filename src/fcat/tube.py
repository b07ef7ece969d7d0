"""The tube category: annular morphisms between tensor words.

A tube morphism ``X -> Y`` is an R-graded family of plain morphisms
``f_R : R ++ X -> Y ++ R`` over the simple labels R; composition stacks
annuli, which in the graded picture resolves the two grading strands into
simples through dual bases.  The endomorphism algebra of the sum of all
simples is Ocneanu's tube algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from .category import CategorySpec, hom_dim
from .diagrams import (Morphism, cap_word, compose, cup_word,
                       decompose_resolution, identity, random_morphism,
                       tensor, tree_dims, zero_morphism)
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

    ``components[R]`` is a plain :class:`Morphism`; absent grades are zero.
    """
    spec: CategorySpec
    src: tuple
    dst: tuple
    components: dict

    def component(self, R: int) -> Morphism:
        c = self.components.get(R)
        if c is not None:
            return c
        return zero_morphism(self.spec, (R,) + self.src, self.dst + (R,))

    def norm(self) -> float:
        vals = [c.norm() for c in self.components.values()]
        return float(max(vals)) if vals else 0.0

    def prune(self, threshold: float | None = None) -> "TubeMorphism":
        thr = self.spec.tol if threshold is None else threshold
        comps = {R: c for R, c in self.components.items() if c.norm() > thr}
        return replace(self, components=comps)

    def __add__(self, other: "TubeMorphism") -> "TubeMorphism":
        if (self.spec is not other.spec or self.src != other.src
                or self.dst != other.dst):
            raise ShapeMismatch("tube morphisms are not parallel")
        comps = dict(self.components)
        for R, c in other.components.items():
            comps[R] = comps[R] + c if R in comps else c
        return replace(self, components=comps)

    def __sub__(self, other: "TubeMorphism") -> "TubeMorphism":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "TubeMorphism":
        return replace(self, components={R: scalar * c
                                         for R, c in self.components.items()})

    __rmul__ = __mul__


def tube_hom_dim(spec: CategorySpec, X, Y) -> int:
    """dim Hom_TC(X, Y) = sum_R dim Hom(R ++ X, Y ++ R)."""
    X = tuple(spec.word(X))
    Y = tuple(spec.word(Y))
    return sum(hom_dim(spec, (R,) + X, Y + (R,)) for R in range(spec.n_labels))


def _pad_unit(f: Morphism) -> Morphism:
    """Reinterpret ``f : X -> Y`` as ``unit ++ X -> Y ++ unit``.

    The canonical tree bases of the padded words are in order-preserving
    bijection with the original ones, so the blocks carry over unchanged.
    """
    spec = f.spec
    src = (spec.unit,) + f.src
    dst = f.dst + (spec.unit,)
    return Morphism(spec, src, dst, dict(f.blocks))


def _strip_unit(c: Morphism) -> Morphism:
    spec = c.spec
    return Morphism(spec, c.src[1:], c.dst[:-1], dict(c.blocks))


def embed(f: Morphism) -> TubeMorphism:
    """The inclusion of a plain morphism as the unit-graded tube morphism."""
    return TubeMorphism(f.spec, f.src, f.dst, {f.spec.unit: _pad_unit(f)})


def unembed(t: TubeMorphism) -> Morphism:
    """The plain part (unit-grade component) of a tube morphism."""
    return _strip_unit(t.component(t.spec.unit))


def tube_identity(spec: CategorySpec, X) -> TubeMorphism:
    return embed(identity(spec, X))


def zero_tube(spec: CategorySpec, X, Y) -> TubeMorphism:
    return TubeMorphism(spec, tuple(spec.word(X)), tuple(spec.word(Y)), {})


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
    return tube_from_vector(spec, f.src, g.dst, v).prune()


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
    out = zero_tube(spec, X, Y)
    for S, bstar_Y, b_X in _conjugators(spec, G, X, Y, {}):
        comp = compose(bstar_Y, compose(alpha, b_X))
        out = out + TubeMorphism(spec, X, Y, {S: comp})
    return out.prune()


def _identity(spec: CategorySpec, word: tuple, pieces: dict) -> Morphism:
    if word not in pieces:
        pieces[word] = identity(spec, word)
    return pieces[word]


def _conjugators(spec: CategorySpec, G: tuple, X: tuple, Y: tuple,
                 pieces: dict) -> list:
    """``(S, id_Y (x) b*, b (x) id_X)`` over a dual basis ``(b, b*)`` of ``Hom(S, G)``."""
    key = (G, X, Y)
    if key not in pieces:
        idX, idY = _identity(spec, X, pieces), _identity(spec, Y, pieces)
        pieces[key] = [(S, tensor(idY, bstar), tensor(b, idX))
                       for S, b, bstar in decompose_resolution(spec, G)]
    return pieces[key]


def _compose_matrix(fixed: TubeMorphism, other, left: bool, probes=None,
                    pieces: dict | None = None) -> np.ndarray:
    """Matrix of composing with a fixed tube morphism, in tube_layout coordinates.

    With ``left`` it is ``h -> fixed . h`` on ``Hom_TC(other, fixed.src)``,
    otherwise ``h -> h . fixed`` on ``Hom_TC(fixed.dst, other)``.  Column c
    is the image of ``probes[c]`` (default: the tube_layout basis).  Per
    grade pair (S, R) the fixed operand's whisker and the (b, b*)
    conjugators are built once; a probe adds only its own whisker.
    ``pieces`` shares conjugators and identities between calls.
    """
    spec = fixed.spec
    other = tuple(spec.word(other))
    X, Y, Z = (other, fixed.src, fixed.dst) if left else (fixed.src, fixed.dst, other)
    P = (X, Y) if left else (Y, Z)
    if probes is None:
        probes = [tube_from_vector(spec, *P, e)
                  for e in np.eye(tube_layout(spec, *P)[1])]
    pieces = {} if pieces is None else pieces
    entries, dim = tube_layout(spec, X, Z)
    where = {(T, k): slice(off, off + nr * nc) for T, k, nr, nc, off in entries}
    M = np.zeros((dim, len(probes)), dtype=complex)
    probe_grades = sorted({R for p in probes for R in p.components})
    pairs = (product(sorted(fixed.components), probe_grades) if left
             else product(probe_grades, sorted(fixed.components)))
    for S, R in pairs:
        idS, idR = _identity(spec, (S,), pieces), _identity(spec, (R,), pieces)
        conj = _conjugators(spec, (S, R), X, Z, pieces)
        if left:    # fixed g_S (x) id_R, probe id_S (x) f_R
            whisker = tensor(fixed.components[S], idR)
            terms = [(T, compose(out, whisker), into) for T, out, into in conj]
        else:       # fixed id_S (x) f_R, probe g_S (x) id_R
            whisker = tensor(idS, fixed.components[R])
            terms = [(T, out, compose(whisker, into)) for T, out, into in conj]
        for c, p in enumerate(probes):
            pc = p.components.get(R if left else S)
            if pc is None:
                continue
            w = tensor(idS, pc) if left else tensor(pc, idR)
            for T, out, into in terms:
                for k, blk in compose(out, compose(w, into)).blocks.items():
                    M[where[(T, k)], c] += blk.reshape(-1)
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
    entries, dim = tube_layout(t.spec, t.src, t.dst)
    v = np.zeros(dim, dtype=complex)
    for R, k, nr, nc, off in entries:
        comp = t.components.get(R)
        if comp is None:
            continue
        b = comp.blocks.get(k)
        if b is not None:
            v[off:off + nr * nc] = b.reshape(-1)
    return v


def tube_from_vector(spec: CategorySpec, X, Y, v) -> TubeMorphism:
    X = tuple(spec.word(X))
    Y = tuple(spec.word(Y))
    entries, dim = tube_layout(spec, X, Y)
    comps: dict = {}
    for R, k, nr, nc, off in entries:
        blk = np.asarray(v[off:off + nr * nc], dtype=complex).reshape(nr, nc)
        if not blk.size or not np.abs(blk).max():
            continue
        comp = comps.setdefault(R, {})
        comp[k] = blk
    return TubeMorphism(spec, X, Y, {
        R: Morphism(spec, (R,) + X, Y + (R,), blocks)
        for R, blocks in comps.items()})


def random_tube_morphism(spec: CategorySpec, X, Y, rng: np.random.Generator
                         ) -> TubeMorphism:
    X = tuple(spec.word(X))
    Y = tuple(spec.word(Y))
    comps = {}
    for R in range(spec.n_labels):
        m = random_morphism(spec, (R,) + X, Y + (R,), rng)
        if m.blocks:
            comps[R] = m
    return TubeMorphism(spec, X, Y, comps)


# ---------------------------------------------------------------------------
# the tube algebra

@dataclass
class TubeAlgebra:
    """Ocneanu's tube algebra ``End_TC(sum of all simples)`` in a fixed basis.

    A coordinate vector is the concatenation over corners (i, j) of the
    :func:`tube_layout` coordinates of ``Hom_TC([i], [j])``, which occupy
    ``corner_slices[(i, j)]``.  ``basis[x]`` is ``(i, j, R, k, r, c)``: the
    entry (r, c) of the grade-R, channel-k block of that corner.
    ``mult[x, y, z]`` holds the structure constants of ``basis_x . basis_y``
    (composition; zero whenever the objects mismatch).
    """
    spec: CategorySpec
    basis: list
    mult: np.ndarray
    unit: np.ndarray
    corner_slices: dict = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def multiply(self, u, v) -> np.ndarray:
        return np.asarray(v) @ self._left_rows(u)

    def left_mult_matrix(self, u) -> np.ndarray:
        return self._left_rows(u).T

    def _left_rows(self, u) -> np.ndarray:
        """Row y holds ``u . basis_y``: one matmul with ``mult`` read as (dim, dim**2)."""
        dim = self.dim
        return (np.asarray(u) @ self.mult.reshape(dim, dim * dim)).reshape(dim, dim)


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
            basis_tubes[(i, j)] = [tube_from_vector(spec, (i,), (j,), e)
                                   for e in np.eye(size)]
    dim = len(basis)
    mult = np.zeros((dim, dim, dim), dtype=complex)
    unit = np.zeros(dim, dtype=complex)
    for i in range(n):
        for l in range(n):
            pieces: dict = {}   # every product into corner (i, l) shares its conjugators
            zs = corner_slices[(i, l)]
            for j in range(n):
                ys = corner_slices[(i, j)]
                x0 = corner_slices[(j, l)].start
                for x, g in enumerate(basis_tubes[(j, l)], x0):
                    mult[x, ys, zs] = _compose_matrix(
                        g, (i,), True, basis_tubes[(i, j)], pieces).T
    for i in range(n):
        unit[corner_slices[(i, i)]] = tube_to_vector(tube_identity(spec, (i,)))
    mult.flags.writeable = False
    unit.flags.writeable = False
    algebra = TubeAlgebra(spec, basis, mult, unit, corner_slices)
    spec._cache[key] = algebra
    return algebra
