"""Disk bundles, plumbing vectors, and the decomposition of the domain of
outer communication.

A connected run of three or more axis rods lifts to a chain of disk-bundle
pieces glued along plumbing vectors.  Working always with the Hermite form
of the rod structures makes every quantity here coordinate independent:
the bundle data (q, r, p) of a consecutive triple, the plumbing vectors,
and the per-relation diagnostics.  A run's Hermite form is computed at
most once, and not at all for a run already of that shape.  Each pair's
2 x 2 minors are taken once, into the minor table of _pair_dual, which
gives the pair's Det_2, the readings of the triples it starts and ends,
and the Det_3 certificate of the plumbing vector it starts; no triple
takes a normal form or builds a matrix.

A round trip (decompose, plumbing_to_rods, decompose) reads every triple
three times, so a reading is kept to one minor table, one
_admissible_triple_bundle, one _plumbing_vector_det3 with its _det3 and
a Bundle built straight from its fields, and integer tuples checked on
entry are not converted again.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import gcd
from typing import NamedTuple, Optional

from .errors import InadmissibleCornerError, PlumbingRelationError
from .intlin import IntMatrix, _bezout, hermite_normal_form, hermite_pivots
from .roddiagram import (
    HALF_PLANE,
    CrossSectionTopology,
    RodDiagram,
    asymptotic_end,
    _as_vector,
    _torus_name,
)


_new_tuple = tuple.__new__  # a NamedTuple's fields, without its __new__ frame


class Bundle(NamedTuple):
    """D^2-bundle (times a torus) over S^3, a lens space, or S^1 x S^2.

    base "Lens" means L(p, q) with p > 1; p = 1 is reported as S3; p = 0
    (with q = 1) is the S^1 x S^2 case, whose euler number is the
    zero-section self-intersection and may be any integer.
    """

    base: str  # a CrossSectionTopology family: "S3" | "Lens" | "S1xS2"
    p: int
    q: int
    euler: int
    torus_factor: int

    @classmethod
    def from_qrp(cls, q, r, p, torus_factor):
        """The checked constructor.  Its numbers are integers (gcd takes
        only integers, and r and the torus factor are checked), so the rods
        that plumbing_to_rods generates from bundles are integer tuples."""
        if not isinstance(torus_factor, int) or torus_factor < 0:
            raise ValueError(f"torus factor must be an int >= 0, got {torus_factor!r}")
        if not isinstance(r, int):
            raise TypeError(f"euler number must be an int, got {r!r}")
        if p == 0:
            if q != 1:
                raise ValueError(f"S^1 x S^2 bundle needs q = 1, got q = {q}")
            return _new_tuple(cls, ("S1xS2", 0, 1, r, torus_factor))
        if not (0 <= q < p and 0 <= r < p and gcd(q, p) == 1):
            raise ValueError(f"invalid bundle datum (q, r, p) = ({q}, {r}, {p})")
        return _new_tuple(cls, ("S3" if p == 1 else "Lens", p, q, r, torus_factor))

    @property
    def qrp(self):
        if self.base == "S1xS2":
            return (1, self.euler, 0)
        return (self.q, self.euler, self.p)

    def base_display(self):
        return CrossSectionTopology(self.base, self.p, self.q, 0).display()

    def to_json_dict(self):
        return {
            "base": self.base_display(),
            "p": self.p,
            "q": self.q,
            "euler": self.euler,
            "torus_factor": self.torus_factor,
        }


class RelationCheck(NamedTuple):
    name: str
    index: int  # bundle / vector index the check applies to (1-based), -1 global
    ok: bool
    detail: str = ""


class PlumbingDiagnostics(NamedTuple):
    """Every plumbing relation check, in order, and the recursion's rods.

    A check is held as a record (name, index, ok, template, args).  ok and
    first_failure read the records; the RelationCheck of a record, whose
    detail is template.format(*args), is built only when checks,
    first_failure or to_json_dict is read.
    """

    records: tuple
    rods: tuple  # the recursion-generated rod structures

    @property
    def checks(self):
        return tuple(_relation_check(*rec) for rec in self.records)

    @property
    def ok(self):
        return all(rec[2] for rec in self.records)

    @property
    def first_failure(self):
        for rec in self.records:
            if not rec[2]:
                return _relation_check(*rec)
        return None

    def to_json_dict(self):
        return {
            "ok": self.ok,
            "checks": [
                {"name": c.name, "index": c.index, "ok": c.ok, "detail": c.detail}
                for c in self.checks
            ],
            "generated_rods": [list(w) for w in self.rods],
        }


class ToricPlumbing(NamedTuple):
    bundles: tuple  # l bundles
    plumbing_vectors: tuple  # l-1 vectors, indices 2..l
    rods_hnf: tuple  # the l+2 rod structures in Hermite normal form

    def to_json_dict(self):
        return {
            "bundles": [b.to_json_dict() for b in self.bundles],
            "plumbing_vectors": [list(p) for p in self.plumbing_vectors],
            "rods_hnf": [list(w) for w in self.rods_hnf],
        }


# ----------------------------------------------------------------------


def triple_to_bundle(v1, v2, v3) -> Bundle:
    """Bundle over a neighborhood of three consecutive admissible rods.

    The Hermite form of [v1 v2 v3] is {e1, e2, (q, r, p, 0, ...)}; the
    independent case gives a D^2-bundle over L(p, q) with euler number r,
    the dependent case the S^1 x S^2 bundle with euler number r.  The
    datum is read off the 2 x 2 minors of the triple and certified by its
    plumbing vector (see _admissible_triple_bundle); no normal form is
    computed.
    """
    v1, v2, v3 = _as_vector(v1), _as_vector(v2), _as_vector(v3)
    n = len(v1)
    if len(v2) != n or len(v3) != n:
        raise ValueError("ragged columns")
    if n < 3:
        raise ValueError("bundle extraction needs structures in Z^n with n >= 3")
    first = _pair_dual(v1, v2)
    bundle, flipped = _read_triple(v1, v2, v3, first, _pair_dual(v2, v3))
    _plumbing_vector_det3(v1, v2, tuple(-x for x in v3) if flipped else v3, *bundle.qrp, first[2])
    return bundle


def _read_triple(v1, v2, v3, first, second):
    """triple_to_bundle's corner checks and its uncertified reading, as
    (bundle, flipped) (see _admissible_triple_bundle), off the minor
    tables first = _pair_dual(v1, v2) and second = _pair_dual(v2, v3)."""
    if first[0] != 1:
        raise _inadmissible("first", first[0])
    if second[0] != 1:
        raise _inadmissible("second", second[0])
    return _admissible_triple_bundle(v1, v2, v3, first[1], second[2])


def _pair_dual(v1, v2):
    """(Det_2, c, m), the minor table of [v1 v2]: m lists its 2 x 2 minors
    v1[i] v2[j] - v1[j] v2[i] in _index_pairs order, Det_2 is their gcd and
    c holds Bezout coefficients aligned to m, with sum c_k m_k = Det_2; c
    stops at the first gcd of 1, so it may be shorter than m.  The table
    serves each use of the pair: Det_2 its corner, c the dual of the
    triple it starts, m the q of the triple it ends and the Det_3 of the
    plumbing vector it starts (_det3)."""
    m = [v1[i] * v2[j] - v1[j] * v2[i] for i, j in _index_pairs(len(v1))]
    g, c = _bezout(m)
    return g, c, m


@lru_cache(maxsize=None)
def _index_pairs(n):
    return tuple(combinations(range(n), 2))


@lru_cache(maxsize=None)
def _index_triples(n):
    """(a, b, c, ab, ac, bc) for the rows a < b < c in combinations order,
    with the _index_pairs positions of their three pairs."""
    at = {pair: k for k, pair in enumerate(_index_pairs(n))}
    return tuple((a, b, c, at[a, b], at[a, c], at[b, c])
                 for a, b, c in combinations(range(n), 3))


def _admissible_triple_bundle(v1, v2, v3, c, m23):
    """The bundle of integer tuples v1, v2, v3 whose two pairs have
    Det_2 = 1, and whether its datum was read off -v3; c is
    _pair_dual(v1, v2)[1] and m23 is _pair_dual(v2, v3)[2].

    With c the Bezout coefficients of the minors of [v1 v2], the integer
    functionals g(u) = -c.(v2 ^ u) and f(u) = c.(v1 ^ u) are dual to
    v1, v2, so rest = v3 - g(v3) v1 - f(v3) v2 lies in the saturated
    complement of span(v1, v2) where f and g vanish, and its gcd is p.
    For p != 0 the datum is (g(v3) mod p, f(v3) mod p, p); for p = 0 the
    triple is dependent and v3 = g(v3) v1 + f(v3) v2 exactly.  The
    reading is uncertified: a caller checks it with _plumbing_vector_det3
    on the (possibly negated) v3, whose integral x = (v3 - q v1 - r v2)/p
    with Det_3(v1, v2, x) = 1, or the identity v3 = q v1 + r v2 when
    p = 0, proves [e1 e2 (q, r, p, 0, ...)] to be the triple's Hermite
    form, which is unique.  v2 ^ v3 is m23, so only r takes minors here.
    """
    q = r = 0
    for x, y, (i, j) in zip(c, m23, _index_pairs(len(v1))):
        if x:
            q -= x * y
            r += x * (v1[i] * v3[j] - v1[j] * v3[i])
    p = gcd(*[z - q * x - r * y for x, y, z in zip(v1, v2, v3)])
    if p:
        q, r = q % p, r % p
    flipped = p == 0 and q == -1
    if flipped:
        # v3 and -v3 present the same rod; take the representative with q = +1
        q, r = 1, -r
    return Bundle.from_qrp(q, r, p, len(v1) - 3), flipped


def _inadmissible(which, d):
    """The error for the named corner, whose Det_2 = d is not 1."""
    return InadmissibleCornerError(f"{which} corner is inadmissible (Det_2 = {d})", d)


def plumbing_vector(w_i, w_i1, w_i2, q: int, r: int, p: int):
    """The unique primitive vector p_ with w_i2 = q*w_i + r*w_i1 + p*p_.

    For p = 0 the zero vector is returned, and w_i2 = q*w_i + r*w_i1 must
    hold.  A failure of either relation means the bundle datum does not
    belong to the given triple.
    """
    w_i, w_i1, w_i2 = _as_vector(w_i), _as_vector(w_i1), _as_vector(w_i2)
    if not len(w_i) == len(w_i1) == len(w_i2):
        raise ValueError("ragged columns")
    return _plumbing_vector_det3(w_i, w_i1, w_i2, q, r, p, _pair_dual(w_i, w_i1)[2])[0]


def _plumbing_vector_det3(w_i, w_i1, w_i2, q, r, p, m12):
    """plumbing_vector on integer tuples; also returns Det_3(w_i, w_i1,
    vec), or None for the zero vector of p = 0.  m12 is the minor list of
    _pair_dual(w_i, w_i1)."""
    rest = [z - q * x - r * y for x, y, z in zip(w_i, w_i1, w_i2)]
    if p == 0:
        if any(rest):
            raise PlumbingRelationError(
                f"w_i2 - q w_i - r w_i1 = {tuple(rest)} does not vanish for p = 0; "
                "bundle datum is inconsistent with the triple"
            )
        return tuple(rest), None
    if p != 1:  # 1 divides every residual, which is then the vector
        if any([x % p for x in rest]):
            raise PlumbingRelationError(
                f"residual {tuple(rest)} is not divisible by p = {p}; "
                "bundle datum is inconsistent with the triple"
            )
        rest = [x // p for x in rest]
    vec = tuple(rest)
    return vec, _certify(vec, _det3(m12, vec))


def _det3(m12, vec):
    """Det_3 of [w_i w_i+1 vec], given the minors m12 of [w_i w_i+1]: the
    gcd of its 3 x 3 minors, each expanded along the column of vec, over
    the rows a < b < c in combinations order and stopped at gcd 1."""
    if len(vec) < 3:
        raise ValueError(f"k = 3 out of range for a {len(vec)} x 3 matrix")
    g = 0
    for a, b, c, ab, ac, bc in _index_triples(len(vec)):
        g = gcd(g, vec[a] * m12[bc] - vec[b] * m12[ac] + vec[c] * m12[ab])
        if g == 1:
            return 1
    return g


def _certify(vec, d3):
    """d3 = Det_3(w_i, w_i+1, vec), unless the plumbing vector vec is not
    primitive or d3 is not 1."""
    if gcd(*vec) != 1:
        raise PlumbingRelationError(f"computed plumbing vector {vec} is not primitive")
    if d3 != 1:
        raise PlumbingRelationError(
            f"triple (w_i, w_i+1, plumbing vector) has Det_3 = {d3}, expected 1"
        )
    return d3


def decompose_component(structures) -> ToricPlumbing:
    """Decompose a run of >= 3 admissible rod structures into bundles and
    plumbing vectors.

    A run already in Hermite form, such as the rods of plumbing_to_rods,
    is recognised by its shape (hermite_pivots) and taken as it is;
    any other run is put into Hermite normal form W once, the only normal
    form computed here.  Det_2 is invariant under the form's unimodular
    change of coordinates, so the pairs of W decide admissibility: each
    pair takes one minor table (_pair_dual), whose Det_2 must be 1.  Each
    triple of W is read in turn off the tables of its two pairs
    (_admissible_triple_bundle).  A dependent triple whose third column
    reads q = -1 has that column negated, with the table of the pair it
    ends, so that the triple takes its canonical q = +1 form before the
    plumbing vector and the later triples read it; the column holds no
    pivot, so the result is still the Hermite form of the run with that
    structure negated.  The plumbing vector step certifies each reading:
    one Det_3 per triple with p != 0, the identity
    w_{i+2} = q_i w_i + r_i w_{i+1} for p = 0.  With the Hermite shape of
    W, these raises decide every relation that verify_plumbing_relations
    checks, so none is checked again.
    """
    vs = [_as_vector(v) for v in structures]
    if len(vs) < 3:
        raise ValueError("a toric plumbing needs at least three rod structures")
    n = len(vs[0])
    if n < 3:
        raise ValueError("toric plumbing needs n >= 3")
    if any([len(v) != n for v in vs]):
        raise ValueError("ragged columns")
    mat = IntMatrix._trusted(tuple(zip(*vs)))
    W = vs if hermite_pivots(mat) is not None else hermite_normal_form(mat).H.columns()
    u, v = W[0], W[1]
    cur = _pair_dual(u, v)
    if cur[0] != 1:
        raise _inadmissible("a", cur[0])
    bundles = []
    vectors = []
    for i in range(2, len(W)):
        w = W[i]
        # taken before the triple is read, so a flip of w has one table to negate
        nxt = _pair_dual(v, w)
        if nxt[0] != 1:
            raise _inadmissible("a", nxt[0])
        bundle, flipped = _admissible_triple_bundle(u, v, w, cur[1], nxt[2])
        if flipped:
            w = W[i] = tuple([-x for x in w])
            nxt = (nxt[0], [-x for x in nxt[1]], [-x for x in nxt[2]])
        _, p, q, r, _ = bundle
        vec = _plumbing_vector_det3(u, v, w, q, r, p, cur[2])[0]
        bundles.append(bundle)
        # the first vector is e3 or 0, since W starts e1, e2, (q, r, p, 0, ...)
        if i > 2:
            vectors.append(vec)
        u, v, cur = v, w, nxt
    return ToricPlumbing(tuple(bundles), tuple(vectors), tuple(W))


def plumbing_to_rods(bundles, plumbing_vectors):
    """Rod structures of the toric plumbing of the given bundles along the
    given vectors; inverse of decompose_component.

    The relations are verified first; a violation raises
    PlumbingRelationError.
    """
    diag = verify_plumbing_relations(bundles, plumbing_vectors)
    if not diag.ok:
        bad = diag.first_failure
        raise PlumbingRelationError(f"{bad.name} fails at index {bad.index}: {bad.detail}")
    return list(diag.rods)


def _run_recursion(bundles, plumbing_vectors):
    """Generate w_1..w_{l+2} from the recursion; returns (rods, vectors)."""
    bundles = list(bundles)
    l = len(bundles)
    if l < 1:
        raise ValueError("need at least one bundle")
    if len(plumbing_vectors) != l - 1:
        raise ValueError(
            f"need {l - 1} plumbing vectors for {l} bundles, got {len(plumbing_vectors)}"
        )
    torus = bundles[0].torus_factor
    for i, b in enumerate(bundles, start=1):
        if b.torus_factor != torus:
            raise ValueError(
                f"bundle {i} has torus factor {b.torus_factor!r} but bundle 1 has "
                f"{torus!r}; all bundles must share one"
            )
    n = torus + 3
    # p_1 is e3, or 0 when the first bundle has p = 0
    vecs = [tuple(int(i == 2 and bundles[0].p != 0) for i in range(n))]
    vecs += [_as_vector(p) for p in plumbing_vectors]
    for v in vecs:
        if len(v) != n:
            raise ValueError("plumbing vector length must match the torus rank")
    w = [
        tuple(1 if i == 0 else 0 for i in range(n)),
        tuple(1 if i == 1 else 0 for i in range(n)),
    ]
    a, b = w
    for (_, p, q, r, _), c in zip(bundles, vecs):
        a, b = b, tuple([q * x + r * y + p * z for x, y, z in zip(a, b, c)])
        w.append(b)
    return tuple(w), tuple(vecs)


def verify_plumbing_relations(bundles, plumbing_vectors) -> PlumbingDiagnostics:
    """Check the plumbing relations for a (bundles, vectors) collection.

    Diagnostics cover, in order: primitivity of each nonzero vector, the
    zero rule for p_i = 0 bundles, admissibility of every recursion-
    generated pair, primitivity of the (w_i, w_{i+1}, p_i) triples, the
    vanishing-entry rule, the pivot bounds, that the generated sequence
    is in Hermite normal form (by its shape, hermite_pivots; no normal
    form is computed), and that the bundles read back off it.  Every
    check is evaluated and all outcomes are reported, not just the first
    failure; each is recorded as (name, index, ok, template, args), and
    its detail is formatted only when PlumbingDiagnostics is read.
    """
    rods, vecs = _run_recursion(bundles, plumbing_vectors)
    # one minor table per generated pair: Det_2 for its corner, the minors
    # for the Det_3 of the vector it starts, and both tables of each
    # triple for its read-back
    tables = [_pair_dual(a, b) for a, b in zip(rods, rods[1:])]
    det2s = [t[0] for t in tables[1:]]
    det3s = [_det3(tables[i][2], vec) if any(vec) else None
             for i, vec in enumerate(vecs)]
    records = []
    for i, (b, vec) in enumerate(zip(bundles, vecs), start=1):
        if b.p == 0:
            records.append(("zero_vector_rule", i, not any(vec),
                            "p_{} = 0 so the plumbing vector must vanish, got {}", (i, vec)))
        else:
            records.append(("vector_primitive", i, gcd(*vec) == 1, "plumbing vector {}", (vec,)))
    records += [("pair_admissible", i, d == 1, "Det_2(w_{}, w_{}) = {}", (i + 1, i + 2, d))
                for i, d in enumerate(det2s, start=1)]
    records += [("triple_primitive", i, d3 == 1, "Det_3(w_{0}, w_{1}, p_{0}) = {2}", (i, i + 1, d3))
                for i, d3 in enumerate(det3s, start=1) if d3 is not None]

    # vanishing rule: a vector may reach at most one coordinate past the
    # last one used by the earlier nonzero vectors.  Pivot rule: when p_k
    # reaches one coordinate past everything used so far, that entry of
    # w_{k+2} is a new Hermite pivot bounding the ones before it (rows 1
    # and 2 are always taken by e1, e2)
    vanishing, pivots = [], []
    last = -1  # the last coordinate used by p_1..p_{k-1}, -1 while they all vanish
    for k, vk in enumerate(vecs, start=1):
        if last >= 0:
            m = last + 2  # 1-based position one past the last used entry
            vanishing.append(("zeros_rule", k, not any(vk[m:]),
                              "earlier vectors vanish from entry {}; p_{} = {}", (m, k, vk)))
        mk = len(vk) - 1  # the last nonzero entry of vk, -1 if it vanishes
        while mk >= 0 and not vk[mk]:
            mk -= 1
        if mk == max(1, last) + 1:
            wk2 = rods[k + 1]
            pivot = wk2[mk]
            ok = pivot > 0 and all(0 <= x < pivot for x in wk2[:mk])
            pivots.append(("pivot_rule", k, ok, "w_{} = {}, pivot position {}", (k + 2, wk2, mk + 1)))
        last = max(last, mk)
    records += vanishing
    records += pivots
    # the rods are integer tuples of one length (see Bundle.from_qrp)
    shape = hermite_pivots(IntMatrix._trusted(tuple(zip(*rods))))
    records.append(("hermite_form", -1, shape is not None,
                    "generated rod structures must already be in Hermite normal form", ()))

    # coherence: reading the bundles back off the generated rods must
    # reproduce the input bundles; the reading stops at the first triple
    # that fails
    roundtrip_ok = True
    detail = ""
    try:
        if len(rods[0]) < 3:
            raise ValueError("bundle extraction needs structures in Z^n with n >= 3")
        for i, bundle in enumerate(bundles):
            back = _read_back(rods, i, bundle, vecs[i], tables[i], tables[i + 1], det3s[i])
            if back != bundle:
                roundtrip_ok = False
                detail = f"triple {i + 1} reads back as {back.to_json_dict()}"
                break
    except (InadmissibleCornerError, ValueError) as e:
        roundtrip_ok = False
        detail = str(e)
    records.append(("bundle_roundtrip", -1, roundtrip_ok, "{}", (detail,)))
    return PlumbingDiagnostics(tuple(records), rods)


def _read_back(rods, i, bundle, vec, first, second, d3):
    """triple_to_bundle on the recursion's rods w_{i+1}, w_{i+2}, w_{i+3},
    whose length n >= 3 the caller has checked, given the minor tables
    (_pair_dual) of its two corners and the Det_3 of the recursion's
    vector p_{i+1} (None if it vanishes).  A reading
    equal to the bundle the recursion used has that vector as its
    plumbing vector, since
    w_{i+3} = q w_{i+1} + r w_{i+2} + p p_{i+1} holds by construction, so
    d3 certifies it; any other reading is certified from scratch."""
    v1, v2, v3 = rods[i : i + 3]
    back, flipped = _read_triple(v1, v2, v3, first, second)
    if back != bundle:
        _plumbing_vector_det3(v1, v2, tuple(-x for x in v3) if flipped else v3, *back.qrp, first[2])
    elif back.p != 0:
        _certify(vec, d3)
    return back


def _relation_check(name, index, ok, template, args):
    return RelationCheck(name, index, ok, template.format(*args))


# ----------------------------------------------------------------------
# decomposition of the domain of outer communication


class DocPiece(NamedTuple):
    kind: str  # "toric_plumbing" | "corner_ball" | "cylinder" | "end"
    source_rod_indices: tuple
    plumbing: Optional[ToricPlumbing] = None
    end: Optional[CrossSectionTopology] = None
    torus_factor: int = 0

    def display(self):
        if self.kind == "toric_plumbing":
            bases = ", ".join(b.base_display() for b in self.plumbing.bundles)
            return f"toric plumbing of [{bases}]"
        if self.kind == "corner_ball":
            return f"B^4 x {_torus_name(self.torus_factor)}" if self.torus_factor else "B^4"
        if self.kind == "cylinder":
            return f"[0,1] x D^2 x {_torus_name(self.torus_factor)}"
        return f"R+ x {self.end.display()}"

    def to_json_dict(self):
        out = {
            "kind": self.kind,
            "source_rod_indices": list(self.source_rod_indices),
            "display": self.display(),
        }
        if self.plumbing is not None:
            out["plumbing"] = self.plumbing.to_json_dict()
        if self.end is not None:
            out["cross_section"] = self.end.to_json_dict()
        return out


class DocDecomposition(NamedTuple):
    pieces: tuple
    J: int
    N1: int
    N2: int

    def to_json_dict(self):
        return {
            "counts": {"J": self.J, "N1": self.N1, "N2": self.N2},
            "pieces": [p.to_json_dict() for p in self.pieces],
        }


def doc_decomposition(diagram: RodDiagram) -> DocDecomposition:
    """Decompose the domain of outer communication of a half-plane diagram
    into toric plumbings, corner balls, cylinders, and the asymptotic end.

    Axis components with >= 3 rods become toric plumbings (J of them),
    single finite rods become cylinders (N1), two-rod components become
    corner balls (N2), and lone semi-infinite rods are absorbed into the
    end piece.
    """
    if diagram.shape != HALF_PLANE:
        raise ValueError("the decomposition applies to half-plane diagrams")
    n = diagram.n
    if n < 3:
        raise ValueError(f"the decomposition needs torus rank n >= 3, got n = {n}")
    bad = diagram.inadmissible_corner()
    if bad:
        raise InadmissibleCornerError(
            "corner between rods %d and %d is inadmissible (Det_2 = %d)" % bad, bad[2]
        )

    last = len(diagram.rods) - 1
    pieces = []
    end_sources = []
    J = N1 = N2 = 0
    for comp in diagram.axis_components():
        semi_inf = comp[0] == 0 or comp[-1] == last
        if len(comp) == 1 and semi_inf:
            end_sources.extend(comp)
            continue
        if len(comp) == 1:
            N1 += 1
            pieces.append(DocPiece("cylinder", tuple(comp), torus_factor=n - 1))
        elif len(comp) == 2:
            N2 += 1
            pieces.append(DocPiece("corner_ball", tuple(comp), torus_factor=n - 2))
        else:
            J += 1
            plumb = decompose_component(
                [diagram.rods[i].structure.v for i in comp]
            )
            pieces.append(DocPiece("toric_plumbing", tuple(comp), plumbing=plumb))
    pieces.append(
        DocPiece("end", tuple(end_sources), end=asymptotic_end(diagram))
    )
    return DocDecomposition(tuple(pieces), J, N1, N2)
