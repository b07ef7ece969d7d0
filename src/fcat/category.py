"""Skeletal data of a spherical fusion category: loading and validation.

A category is presented by its simple labels, fusion multiplicities N,
dual involution, F-symbols (associator matrix elements in the fusion-tree
basis), optional R-symbols (braiding) and quantum dimensions.  Conventions:

* ``F[a,b,c;d][(e,alpha,beta),(f,gamma,delta)]`` is the coefficient of the
  right-nested splitting tree ``(a(bc->f)->d)`` in the expansion of the
  left-nested tree ``((ab->e)c->d)``.
* ``R[a,b;c]`` is the matrix of the braiding ``a (x) b -> b (x) a``
  restricted to total charge ``c``, mapping the vertex space ``V(a,b;c)``
  to ``V(b,a;c)``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConsistencyError, MissingData, NotBraided, SchemaError, UnknownLabel

__all__ = [
    "Label", "FusionRules", "FSymbolTable", "RSymbolTable", "PivotalData",
    "CategorySpec", "load_category", "load_builtin", "builtin_names",
    "validate_pentagon", "validate_hexagon", "hom_dim", "global_dimension",
]

DATA_DIR = Path(__file__).parent / "data"


@dataclass(frozen=True)
class Label:
    """A simple object: short string id plus dense index assigned at load."""
    id: str
    index: int


@dataclass(frozen=True)
class FusionRules:
    """Fusion multiplicities ``N[a, b, c]`` and the dual involution."""
    N: np.ndarray          # (n, n, n) non-negative int
    dual: np.ndarray       # (n,) int, involution


@dataclass(frozen=True)
class FSymbolTable:
    """Sparse F-symbols; omitted entries are zero.

    ``entries[(a, b, c, d)]`` maps ``(e, alpha, beta, f, gamma, delta)`` to
    a complex scalar.  Dense per-block matrices are assembled on demand.
    """
    entries: dict

    def matrix(self, spec: CategorySpec, a: int, b: int, c: int, d: int):
        """Dense F-matrix for fixed outer labels, with its two basis lists.

        Returns ``(F, lhs, rhs)`` where ``lhs`` enumerates ``(e, alpha, beta)``
        and ``rhs`` enumerates ``(f, gamma, delta)``; ``F[i, j]`` is the symbol.
        """
        key = ("fmat", a, b, c, d)
        cached = spec._cache.get(key)
        if cached is not None:
            return cached
        N = spec.rules.N
        n = len(spec.labels)
        lhs = [(e, al, be) for e in range(n)
               for al in range(N[a, b, e]) for be in range(N[e, c, d])]
        rhs = [(f, ga, de) for f in range(n)
               for ga in range(N[b, c, f]) for de in range(N[a, f, d])]
        F = np.zeros((len(lhs), len(rhs)), dtype=complex)
        lhs_pos = {t: i for i, t in enumerate(lhs)}
        rhs_pos = {t: j for j, t in enumerate(rhs)}
        for (e, al, be, f, ga, de), val in self.entries.get((a, b, c, d), {}).items():
            F[lhs_pos[(e, al, be)], rhs_pos[(f, ga, de)]] = val
        F.flags.writeable = False
        spec._cache[key] = (F, lhs, rhs)
        return F, lhs, rhs


@dataclass(frozen=True)
class RSymbolTable:
    """Sparse R-symbols, ``entries[(a, b, c)][(mu, nu)]``; omitted entries zero."""
    entries: dict

    def matrix(self, spec: CategorySpec, a: int, b: int, c: int) -> np.ndarray:
        key = ("rmat", a, b, c)
        cached = spec._cache.get(key)
        if cached is not None:
            return cached
        N = spec.rules.N
        R = np.zeros((N[b, a, c], N[a, b, c]), dtype=complex)
        for (mu, nu), val in self.entries.get((a, b, c), {}).items():
            R[nu, mu] = val
        R.flags.writeable = False
        spec._cache[key] = R
        return R


@dataclass(frozen=True)
class PivotalData:
    """Quantum dimensions per label and the global dimension ``D2 = sum d(i)^2``."""
    d: np.ndarray          # (n,) complex
    D2: complex


@dataclass(frozen=True)
class CategorySpec:
    """Validated, immutable skeletal presentation of a spherical fusion category."""
    name: str
    labels: tuple[Label, ...]
    unit: int
    rules: FusionRules
    F: FSymbolTable
    R: RSymbolTable | None
    pivotal: PivotalData
    tol: float
    # the pentagon and (if braided) hexagon reports of load_category
    validation: dict = field(default_factory=dict, repr=False, compare=False)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n_labels(self) -> int:
        return len(self.labels)

    @property
    def braided(self) -> bool:
        return self.R is not None

    def index(self, label_id: str) -> int:
        for lab in self.labels:
            if lab.id == label_id:
                return lab.index
        raise UnknownLabel(f"unknown label {label_id!r} in category {self.name!r}")

    def word(self, ids) -> tuple[int, ...]:
        """Convert a sequence of label ids (or indices) to an internal word."""
        out = []
        for x in ids:
            if isinstance(x, str):
                out.append(self.index(x))
            else:
                x = int(x)
                if not 0 <= x < self.n_labels:
                    raise UnknownLabel(f"label index {x} out of range")
                out.append(x)
        return tuple(out)

    def word_ids(self, word) -> list[str]:
        return [self.labels[i].id for i in word]

    def dual(self, a: int) -> int:
        return int(self.rules.dual[a])

    def dual_word(self, word) -> tuple[int, ...]:
        """The dual object of a tensor word: reversed order, dualized letters."""
        return tuple(self.dual(a) for a in reversed(word))

    def dim(self, a: int) -> complex:
        return complex(self.pivotal.d[a])


def load_category(path, tol: float | None = None) -> CategorySpec:
    """Load and fully validate a category file (UTF-8 JSON).

    Raises SchemaError for malformed documents, MissingData if quantum
    dimensions are absent, and ConsistencyError when a structural identity
    (unit law, duality, fusion associativity, pentagon, hexagon,
    sphericality, zig-zag) fails beyond tolerance.  The reports of
    :func:`validate_pentagon` and, if braided, :func:`validate_hexagon` are
    kept in ``spec.validation``, so no caller needs to run them again.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from exc
    return _load_document(doc, tol=tol)


def builtin_names() -> list[str]:
    return sorted(p.stem for p in DATA_DIR.glob("*.json"))


def load_builtin(name: str, tol: float | None = None) -> CategorySpec:
    """Load one of the bundled categories by name, e.g. ``'fibonacci'``."""
    path = DATA_DIR / f"{name}.json"
    if not path.exists():
        raise SchemaError(f"no builtin category {name!r}; have {builtin_names()}")
    return load_category(path, tol=tol)


def _load_document(doc, tol=None) -> CategorySpec:
    if not isinstance(doc, dict):
        raise SchemaError("top-level document must be a JSON object")
    for key in ("name", "labels", "unit", "dual", "N", "F", "dims"):
        if key not in doc:
            if key == "dims":
                raise MissingData("quantum dimensions ('dims') are required")
            raise SchemaError(f"missing required field {key!r}")

    ids = doc["labels"]
    if not isinstance(ids, list) or not all(isinstance(x, str) for x in ids):
        raise SchemaError("'labels' must be an array of strings")
    if len(set(ids)) != len(ids):
        raise SchemaError("label ids must be unique")
    index = {s: i for i, s in enumerate(ids)}
    n = len(ids)
    labels = tuple(Label(s, i) for i, s in enumerate(ids))

    def look(s):
        if not isinstance(s, str) or s not in index:
            raise SchemaError(f"unknown label {s!r}")
        return index[s]

    def number(x, field):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise SchemaError(f"{field!r} holds {x!r}, which is not a number")
        if not abs(x) <= sys.float_info.max:    # NaN, infinities, huge integers
            raise SchemaError(f"non-finite value in {field!r}")
        return x

    def count(x, field):
        """A non-negative integer: a vertex index or a multiplicity."""
        if number(x, field) < 0 or x != int(x):
            raise SchemaError(f"{field!r} holds {x!r}, which is not a count")
        return int(x)

    def rows(field, width, shape):
        table = doc[field]
        if not isinstance(table, list) or not all(
                isinstance(row, list) and len(row) == width for row in table):
            raise SchemaError(f"each {field} row must be {shape}")
        return table

    unit = look(doc["unit"])

    dual = np.zeros(n, dtype=int)
    if not isinstance(doc["dual"], dict) or set(doc["dual"]) != set(ids):
        raise SchemaError("'dual' must map every label")
    for s, t in doc["dual"].items():
        dual[look(s)] = look(t)
    if not all(dual[dual[a]] == a for a in range(n)):
        raise ConsistencyError("duality", 1.0, "dual map is not an involution")
    if dual[unit] != unit:
        raise ConsistencyError("duality", 1.0, "dual(1) != 1")

    N = np.zeros((n, n, n), dtype=int)
    for row in rows("N", 4, "[a, b, c, m]"):
        a, b, c, m = look(row[0]), look(row[1]), look(row[2]), count(row[3], "N")
        if m < 1:
            raise SchemaError("N multiplicities must be >= 1 when listed")
        N[a, b, c] = m
    N.flags.writeable = False
    rules = FusionRules(N=N, dual=dual)

    for a in range(n):
        for c in range(n):
            want = 1 if a == c else 0
            if N[a, unit, c] != want or N[unit, a, c] != want:
                raise ConsistencyError("unit-law", 1.0,
                                       f"N with unit wrong at ({ids[a]},{ids[c]})")
        for b in range(n):
            want = 1 if b == dual[a] else 0
            if N[a, b, unit] != want:
                raise ConsistencyError("duality", 1.0,
                                       f"N[{ids[a]},{ids[b]},unit] != {want}")
    lhs = np.einsum("abe,ecd->abcd", N, N)
    rhs = np.einsum("bcf,afd->abcd", N, N)
    if not np.array_equal(lhs, rhs):
        raise ConsistencyError("associativity", float(np.abs(lhs - rhs).max()),
                               "fusion multiplicities are not associative")

    f_entries: dict = {}
    for row in rows("F", 12, "12 entries"):
        a, b, c, d, e, f = (look(row[i]) for i in range(6))
        al, be, ga, de = (count(x, "F") for x in row[6:10])
        val = complex(number(row[10], "F"), number(row[11], "F"))
        if not (al < N[a, b, e] and be < N[e, c, d] and ga < N[b, c, f] and de < N[a, f, d]):
            raise SchemaError(
                f"F entry on fusion-forbidden channel: {[ids[x] for x in (a, b, c, d, e, f)]}")
        f_entries.setdefault((a, b, c, d), {})[(e, al, be, f, ga, de)] = val
    ftable = FSymbolTable(entries=f_entries)

    rtable = None
    if doc.get("R") is not None:
        r_entries: dict = {}
        for row in rows("R", 7, "7 entries"):
            a, b, c = look(row[0]), look(row[1]), look(row[2])
            mu, nu = count(row[3], "R"), count(row[4], "R")
            val = complex(number(row[5], "R"), number(row[6], "R"))
            if not (mu < N[a, b, c] and nu < N[b, a, c]):
                raise SchemaError("R entry on fusion-forbidden channel")
            r_entries.setdefault((a, b, c), {})[(mu, nu)] = val
        rtable = RSymbolTable(entries=r_entries)

    dims = doc["dims"]
    if not isinstance(dims, dict):
        raise SchemaError("'dims' must be an object label -> [re, im]")
    if set(dims) != set(ids):
        raise MissingData("'dims' must list every label")
    if not all(isinstance(dims[s], list) and len(dims[s]) == 2 for s in ids):
        raise SchemaError("each 'dims' value must be [re, im]")
    d = np.array([complex(*(number(x, "dims") for x in dims[s])) for s in ids])
    d.flags.writeable = False
    use_tol = float(tol if tol is not None else number(doc.get("tol", 1e-9), "tol"))
    if not 0 < use_tol < np.inf:
        raise SchemaError("'tol' must be positive and finite")

    if abs(d[unit] - 1) > use_tol:
        raise ConsistencyError("sphericality", abs(d[unit] - 1), "d(unit) != 1")
    if np.abs(d).min() < use_tol:
        raise ConsistencyError("sphericality", float(np.abs(d).min()),
                               "a quantum dimension is numerically zero")
    res = float(np.abs(d[dual] - d).max())
    if res > use_tol:
        raise ConsistencyError("sphericality", res, "d(a) != d(a*)")
    res = float(np.abs(np.einsum("abc,c->ab", N, d) - np.outer(d, d)).max())
    if res > use_tol:
        raise ConsistencyError("sphericality", res, "d(a)d(b) != sum_c N[a,b,c] d(c)")
    D2 = complex(np.sum(d * d))
    if abs(D2) < use_tol:
        raise ConsistencyError("sphericality", abs(D2), "global dimension vanishes")

    spec = CategorySpec(name=str(doc["name"]), labels=labels, unit=unit,
                        rules=rules, F=ftable, R=rtable,
                        pivotal=PivotalData(d=d, D2=D2), tol=use_tol)

    for a in range(n):
        for b in range(n):
            for c in range(n):
                for dd in range(n):
                    F, lhs_b, rhs_b = ftable.matrix(spec, a, b, c, dd)
                    if len(lhs_b) != len(rhs_b):
                        raise ConsistencyError("associativity", 1.0, "F block not square")
                    if not len(lhs_b):
                        continue
                    sv = np.linalg.svd(F, compute_uv=False)
                    if sv.min() < use_tol:
                        raise ConsistencyError(
                            "pentagon", float(sv.min()),
                            f"F block ({ids[a]},{ids[b]},{ids[c]};{ids[dd]}) singular")
                    # skeletal normal form: associators touching the unit are trivial
                    if unit in (a, b, c):
                        res = float(np.abs(F - np.eye(len(lhs_b))).max())
                        if res > use_tol:
                            raise ConsistencyError(
                                "triangle", res,
                                f"unit F block ({ids[a]},{ids[b]},{ids[c]};{ids[dd]})"
                                " is not the identity")

    rep = spec.validation["pentagon"] = validate_pentagon(spec)
    if rep["max_residual"] > use_tol:
        raise ConsistencyError("pentagon", rep["max_residual"],
                               f"pentagon fails at {rep['worst_instance']}")
    if rtable is not None:
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if N[a, b, c]:
                        R = rtable.matrix(spec, a, b, c)
                        if R.shape[0] != R.shape[1]:
                            raise ConsistencyError("hexagon", 1.0, "R block not square")
                        sv = np.linalg.svd(R, compute_uv=False)
                        if not R.size or sv.min() < use_tol:
                            raise ConsistencyError("hexagon",
                                                   float(sv.min() if R.size else 0.0),
                                                   "R block missing or singular")
        rep = spec.validation["hexagon"] = validate_hexagon(spec)
        if rep["max_residual"] > use_tol:
            raise ConsistencyError("hexagon", rep["max_residual"])
    # both zig-zags, which sphericality alone does not imply (a self-dual
    # simple's Frobenius-Schur sign must match the sign of its dimension)
    from .diagrams import _bend_scalars    # diagrams imports this module
    _bend_scalars(spec)
    return spec


def word_channels(spec: CategorySpec, word) -> np.ndarray:
    """Vector over simples k of the number of fusion channels word -> k."""
    v = np.zeros(spec.n_labels, dtype=np.int64)
    v[spec.unit] = 1
    for a in word:
        v = v @ spec.rules.N[:, a, :]
    return v


def hom_dim(spec: CategorySpec, A, B) -> int:
    """dim Hom(A, B) for tensor words, by iterated N contraction."""
    return int(np.dot(word_channels(spec, spec.word(A)),
                      word_channels(spec, spec.word(B))))


def global_dimension(spec: CategorySpec) -> complex:
    """The global dimension D2 = sum over simples of d(i)^2."""
    return spec.pivotal.D2


def validate_pentagon(spec: CategorySpec) -> dict:
    """Max residual of the pentagon identity over all tree coordinates.

    For every admissible label tuple (a, b, c, d; e) the two recoupling
    routes ``((ab)c)d -> (ab)(cd) -> a(b(cd))`` and
    ``((ab)c)d -> (a(bc))d -> a((bc)d) -> a(b(cd))`` are compared entrywise.
    A vertex (x, y -> z, mu) is an index into the vertices of N listed in C
    order; the splitting-tree pairs are enumerated as arrays of vertex
    indices, one first label ``a`` at a time, and both routes are summed
    per pair in single numpy calls.  F-symbols are looked up in a sorted
    table of packed vertex keys, so memory grows with the number of stored
    symbols.  ``worst_instance`` is the first (a, b, c, d, e) in C order
    whose residual is the maximum, or None when every residual is 0.
    """
    N = spec.rules.N
    n = spec.n_labels
    counts = N.ravel()
    first = (np.cumsum(counts) - counts).reshape(N.shape)   # vertex of (x, y, z, 0)
    vx, vy, vz = (np.repeat(t, counts[counts > 0]) for t in np.nonzero(N))
    per_x = N.sum(axis=(1, 2))
    per_xy = N.sum(axis=2)
    fsym = _vertex_keyed_f(spec, first, len(vx))

    # (c, d -> h)(b, h -> l), the start of every right tree; vertices
    # (b, h -> l) are listed by their second label h
    per_y = N.sum(axis=(0, 2))
    by_y = np.argsort(vy, kind="stable")
    v4, k = _expand(per_y[vz])
    cd_bh = [v4, by_y[(np.cumsum(per_y) - per_y)[vz[v4]] + k]]

    worst = np.zeros((n, n ** 4))
    for a in range(n):
        # left trees (a, b -> f)(f, c -> g)(g, d -> e)
        v1 = first[a, 0, 0] + np.arange(per_x[a])
        v1, v2 = _extend([v1], first[vz[v1], 0, 0], per_x[vz[v1]])
        v1, v2, v3 = _extend([v1, v2], first[vz[v2], 0, 0], per_x[vz[v2]])
        # right trees (c, d -> h)(b, h -> l)(a, l -> e)
        l = vz[cd_bh[1]]
        v4, v5, v6 = _extend(cd_bh, first[a, l, 0], per_xy[a, l])
        # pair every left tree with every right tree of the same (b, c, d, e)
        left_key = ((vy[v1] * n + vy[v2]) * n + vy[v3]) * n + vz[v3]
        right_key = ((vx[v5] * n + vx[v4]) * n + vy[v4]) * n + vz[v6]
        by_key = np.argsort(right_key, kind="stable")
        per_key = np.bincount(right_key, minlength=n ** 4)
        t, k = _expand(per_key[left_key])
        u = by_key[(np.cumsum(per_key) - per_key)[left_key][t] + k]
        key = left_key[t]
        v1, v2, v3, v4, v5, v6 = v1[t], v2[t], v3[t], v4[u], v5[u], v6[u]
        b, c, d, e, f, g, h, l = vy[v1], vy[v2], vy[v3], vz[v3], vz[v1], vz[v2], vz[v4], vz[v5]
        pair = np.arange(len(key))

        # two-step route: sum over sigma in V(f, h; e)
        t, vs = _extend([pair], first[f, h, e], N[f, h, e])
        prod = fsym(v2[t], v3[t], v4[t], vs) * fsym(v1[t], vs, v5[t], v6[t])
        two = _bin_sum(t, prod, len(key))

        # three-step route: sum over (m, mu) in V(b, c; m), nu in V(a, m; g)
        # and pi in V(m, d; l), in that nesting order
        t, vm = _extend([pair], first[b, c, 0], per_xy[b, c])
        m = vz[vm]
        t, vm, vn = _extend([t, vm], first[a, m, g[t]], N[a, m, g[t]])
        m = vz[vm]
        t, vm, vn, vp = _extend([t, vm, vn], first[m, d[t], l[t]], N[m, d[t], l[t]])
        prod = (fsym(v1[t], v2[t], vm, vn) * fsym(vn, v3[t], vp, v6[t])
                * fsym(vm, vp, v4[t], v5[t]))
        three = _bin_sum(t, prod, len(key))

        # fmax skips NaN, as the comparison in a running maximum would
        np.fmax.at(worst[a], key, np.abs(two - three))

    at = int(np.argmax(worst))
    if not worst.flat[at] > 0:
        return {"max_residual": 0.0, "worst_instance": None}
    labels = np.unravel_index(at, (n,) * 5)
    return {"max_residual": float(worst.flat[at]),
            "worst_instance": tuple(spec.labels[int(x)].id for x in labels)}


def _expand(counts):
    """Row index and offset within the row for ``counts[i]`` copies of row i."""
    rows = np.repeat(np.arange(len(counts)), counts)
    return rows, np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]


def _extend(cols, start, count):
    """Rows given as columns, each row followed by each of ``count[i]``
    consecutive vertices from ``start[i]`` in a new last column."""
    r, k = _expand(count)
    return [c[r] for c in cols] + [start[r] + k]


def _bin_sum(rows, values, size):
    """Complex sums of ``values`` per row, accumulated in array order."""
    return (np.bincount(rows, values.real, size)
            + 1j * np.bincount(rows, values.imag, size))


def _vertex_keyed_f(spec: CategorySpec, first: np.ndarray, n_vertices: int):
    """F-symbol lookup by the four vertices (ab->e)(ec->d) | (bc->f)(af->d).

    The returned function maps four vertex-index arrays to the symbols,
    with 0 where none is stored.
    """
    rows = [key + lab for lab, block in spec.F.entries.items() for key in block]
    vals = [v for block in spec.F.entries.values() for v in block.values()]
    e, al, be, f, ga, de, a, b, c, d = np.array(rows, dtype=np.int64).reshape(-1, 10).T

    def pack(w, x, y, z):
        return ((w * n_vertices + x) * n_vertices + y) * n_vertices + z

    keys = pack(first[a, b, e] + al, first[e, c, d] + be,
                first[b, c, f] + ga, first[a, f, d] + de)
    order = np.argsort(keys)
    # a sentinel above every packed key keeps searchsorted in range
    keys = np.append(keys[order], np.iinfo(np.int64).max)
    vals = np.append(np.array(vals, dtype=complex)[order], 0)

    def lookup(w, x, y, z):
        q = pack(w, x, y, z)
        pos = np.searchsorted(keys, q)
        return np.where(keys[pos] == q, vals[pos], 0)
    return lookup


def braid_coeff(spec: CategorySpec, x: int, y: int, e: int, under: bool = False) -> np.ndarray:
    """Coefficient matrix of sigma_{x,y} (or its opposite) on V(x,y;e) -> V(y,x;e)."""
    if spec.R is None:
        raise NotBraided(f"category {spec.name!r} has no R-symbols")
    if under:
        return np.linalg.inv(spec.R.matrix(spec, y, x, e))
    return spec.R.matrix(spec, x, y, e)


def validate_hexagon(spec: CategorySpec) -> dict:
    """Max residual of both hexagon identities over all label triples.

    Each hexagon is checked as a matrix identity on splitting-tree bases of
    ``Hom(d, a(bc))``: braiding past the fused pair equals the two-step braid
    conjugated by F-moves.
    """
    if spec.R is None:
        raise NotBraided(f"category {spec.name!r} has no R-symbols")
    n = spec.n_labels
    worst = 0.0
    memo: dict = {}   # inverted F blocks and braid coefficients of this call
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    for under in (False, True):
                        worst = max(worst, _hexagon_residual(spec, a, b, c, d, under, memo))
    return {"max_residual": worst}


def _hexagon_residual(spec, a, b, c, d, under: bool, memo: dict | None = None) -> float:
    """One hexagon orientation as an operator identity for (a; b, c; total d).

    ``memo`` keeps inverted F blocks and braid coefficients for reuse across
    the calls that share it; it must not outlive ``spec``'s data.
    """
    N = spec.rules.N
    memo = {} if memo is None else memo
    F_abc, lhs_abc, rhs_abc = spec.F.matrix(spec, a, b, c, d)
    if not len(rhs_abc):
        return 0.0
    F_bac, lhs_bac, rhs_bac = spec.F.matrix(spec, b, a, c, d)
    rhs_bca = spec.F.matrix(spec, b, c, a, d)[2]

    def memoized(key, make):
        if key not in memo:
            memo[key] = make()
        return memo[key]

    def inv_ft(x, y, z):
        return memoized(("inv_ft", x, y, z, d),
                        lambda: np.linalg.inv(spec.F.matrix(spec, x, y, z, d)[0].T))

    def braid(x, y, e):
        return memoized(("braid", x, y, e, under),
                        lambda: braid_coeff(spec, x, y, e, under))

    def block_on_slot(basis_in, basis_out, pick, coeff):
        """Dense matrix acting on the vertex slot selected by ``pick``."""
        M = np.zeros((len(basis_out), len(basis_in)), dtype=complex)
        for j, tin in enumerate(basis_in):
            C = coeff(tin[0])
            for i, tout in enumerate(basis_out):
                if tout[0] != tin[0]:
                    continue
                (si, keep_i), (so, keep_o) = pick(tin), pick(tout)
                if keep_i == keep_o:
                    M[i, j] = C[so, si]
        return M

    # direct: sigma_{a, f} on the delta-slot of (f, gamma, delta in V(a,f;d))
    tgt_direct = [(f, ga, nu) for f in range(spec.n_labels)
                  for ga in range(N[b, c, f]) for nu in range(N[f, a, d])]
    D = block_on_slot(rhs_abc, tgt_direct,
                      lambda t: (t[2], t[1]),
                      lambda f: braid(a, f, d))

    # stepwise: F^-1, braid(a,b) on alpha-slot, F, braid(a,c) on gamma-slot, F^-1
    B1 = block_on_slot(lhs_abc, lhs_bac,
                       lambda t: (t[1], t[2]),
                       lambda e: braid(a, b, e))
    B2 = block_on_slot(rhs_bac, rhs_bca,
                       lambda t: (t[1], t[2]),
                       lambda g: braid(a, c, g))
    H = inv_ft(b, c, a) @ B2 @ F_bac.T @ B1 @ inv_ft(a, b, c)
    if D.shape != H.shape:
        return 1.0
    return float(np.abs(D - H).max())
