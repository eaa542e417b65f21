"""Disk bundles, plumbing vectors, and the decomposition of the domain of
outer communication.

A connected run of three or more axis rods lifts to a chain of disk-bundle
pieces glued along plumbing vectors.  Working always with the Hermite form
of the rod structures makes every quantity here coordinate independent:
the bundle data (q, r, p) of a consecutive triple, the plumbing vectors,
and the per-relation diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional

from .errors import InadmissibleCornerError, PlumbingRelationError
from .intlin import (
    IntMatrix,
    determinant_divisor,
    hermite_normal_form,
    is_primitive_vector,
    vec_add,
    vec_scale,
    vec_sub,
)
from .roddiagram import (
    HALF_PLANE,
    CrossSectionTopology,
    RodDiagram,
    asymptotic_end,
    det2,
    _as_vector,
    _torus_name,
)


@dataclass(frozen=True)
class Bundle:
    """D^2-bundle (times a torus) over S^3, a lens space, or S^1 x S^2.

    base "Lens" means L(p, q) with p > 1; p = 1 is reported as S3; p = 0
    (with q = 1) is the S^1 x S^2 case, whose euler number is the
    zero-section self-intersection and may be any integer.
    """

    base: str  # "S3" | "Lens" | "S1xS2"
    p: int
    q: int
    euler: int
    torus_factor: int

    @classmethod
    def from_qrp(cls, q, r, p, torus_factor):
        if p == 0:
            if q != 1:
                raise ValueError(f"S^1 x S^2 bundle needs q = 1, got q = {q}")
            return cls("S1xS2", 0, 1, r, torus_factor)
        if not (0 <= q < p and 0 <= r < p and gcd(q, p) == 1):
            raise ValueError(f"invalid bundle datum (q, r, p) = ({q}, {r}, {p})")
        return cls("S3" if p == 1 else "Lens", p, q, r, torus_factor)

    @property
    def qrp(self):
        if self.base == "S1xS2":
            return (1, self.euler, 0)
        return (self.q, self.euler, self.p)

    def base_display(self):
        if self.base == "S3":
            return "S^3"
        if self.base == "S1xS2":
            return "S^1 x S^2"
        return f"L({self.p},{self.q})"

    def to_json_dict(self):
        return {
            "base": self.base_display(),
            "p": self.p,
            "q": self.q,
            "euler": self.euler,
            "torus_factor": self.torus_factor,
        }


@dataclass(frozen=True)
class RelationCheck:
    name: str
    index: int  # bundle / vector index the check applies to (1-based), -1 global
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class PlumbingDiagnostics:
    checks: tuple
    rods: tuple  # the recursion-generated rod structures

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    @property
    def first_failure(self):
        for c in self.checks:
            if not c.ok:
                return c
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


@dataclass(frozen=True)
class ToricPlumbing:
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
    the dependent case the S^1 x S^2 bundle with euler number r.
    """
    v1, v2, v3 = _as_vector(v1), _as_vector(v2), _as_vector(v3)
    n = len(v1)
    if n < 3:
        raise ValueError("bundle extraction needs structures in Z^n with n >= 3")
    _require_admissible(v1, v2, "first")
    _require_admissible(v2, v3, "second")
    return _admissible_triple_bundle(v1, v2, v3)[0]


def _admissible_triple_bundle(v1, v2, v3):
    """triple_to_bundle on integer tuples whose two pairs are known to
    have Det_2 = 1; also returns whether the datum was read off -v3."""
    n = len(v1)
    H = hermite_normal_form(IntMatrix.from_columns([v1, v2, v3])).H
    cols = H.columns()
    e1 = tuple(1 if i == 0 else 0 for i in range(n))
    e2 = tuple(1 if i == 1 else 0 for i in range(n))
    if cols[0] != e1 or cols[1] != e2:
        raise PlumbingRelationError("admissible pair must reduce to e1, e2")
    q, r, p = cols[2][0], cols[2][1], cols[2][2]
    if any(x != 0 for x in cols[2][3:]):
        raise PlumbingRelationError("third Hermite column must live in Z^3")
    flipped = p == 0 and q == -1
    if flipped:
        # v3 and -v3 present the same rod; take the representative with q = +1
        q, r = 1, -r
    return Bundle.from_qrp(q, r, p, n - 3), flipped


def _require_admissible(v, w, which):
    d = det2(v, w)
    if d != 1:
        raise InadmissibleCornerError(
            f"{which} corner is inadmissible (Det_2 = {d})", d
        )
    return d


def plumbing_vector(w_i, w_i1, w_i2, q: int, r: int, p: int):
    """The unique primitive vector p_ with w_i2 = q*w_i + r*w_i1 + p*p_.

    For p = 0 the zero vector is returned.  A divisibility failure means
    the bundle datum does not belong to the given triple.
    """
    w_i, w_i1, w_i2 = _as_vector(w_i), _as_vector(w_i1), _as_vector(w_i2)
    return _plumbing_vector_det3(w_i, w_i1, w_i2, q, r, p)[0]


def _plumbing_vector_det3(w_i, w_i1, w_i2, q, r, p):
    """plumbing_vector on integer tuples; also returns Det_3(w_i, w_i1,
    vec), or None for the zero vector of p = 0."""
    if p == 0:
        return tuple(0 for _ in w_i), None
    rest = vec_sub(w_i2, vec_add(vec_scale(q, w_i), vec_scale(r, w_i1)))
    if any(x % p != 0 for x in rest):
        raise PlumbingRelationError(
            f"residual {rest} is not divisible by p = {p}; "
            "bundle datum is inconsistent with the triple"
        )
    vec = tuple(x // p for x in rest)
    if not is_primitive_vector(vec):
        raise PlumbingRelationError(f"computed plumbing vector {vec} is not primitive")
    d3 = determinant_divisor(IntMatrix.from_columns([w_i, w_i1, vec]), 3)
    if d3 != 1:
        raise PlumbingRelationError(
            f"triple (w_i, w_i+1, plumbing vector) has Det_3 = {d3}, expected 1"
        )
    return vec, d3


def _first_plumbing_vector(p1: int, n: int):
    if p1 == 0:
        return tuple(0 for _ in range(n))
    return tuple(1 if i == 2 else 0 for i in range(n))


def decompose_component(structures) -> ToricPlumbing:
    """Decompose a run of >= 3 admissible rod structures into bundles and
    plumbing vectors.

    The whole run is put into Hermite normal form once, and each triple of
    that form is read in turn.  A dependent triple whose third column reads
    q = -1 has that column negated, so that the triple takes its canonical
    q = +1 form before the plumbing vector and the later triples read it;
    the column holds no pivot, so the result is still the Hermite form of
    the run with that structure negated.  The recursion
    w_{i+2} = q_i w_i + r_i w_{i+1} + p_i p_ then holds exactly, and its
    relations are checked against the bundles and Det_3 values already
    read off each triple of that form.
    """
    vs = [_as_vector(v) for v in structures]
    if len(vs) < 3:
        raise ValueError("a toric plumbing needs at least three rod structures")
    n = len(vs[0])
    if n < 3:
        raise ValueError("toric plumbing needs n >= 3")
    # Det_2 is invariant under the unimodular Q of the run's Hermite form
    # and under a sign flip, so these values hold for every pair of W too
    det2s = [_require_admissible(a, b, "a") for a, b in zip(vs, vs[1:])]

    l = len(vs) - 2
    W = hermite_normal_form(IntMatrix.from_columns(vs)).H.columns()
    bundles = []
    vectors = []
    det3s = []
    for i in range(l):
        bundle, flipped = _admissible_triple_bundle(W[i], W[i + 1], W[i + 2])
        if flipped:
            W[i + 2] = tuple(-x for x in W[i + 2])
        q, r, p = bundle.qrp
        vec, d3 = _plumbing_vector_det3(W[i], W[i + 1], W[i + 2], q, r, p)
        bundles.append(bundle)
        det3s.append(d3)
        if i > 0:
            vectors.append(vec)
        else:
            expected = _first_plumbing_vector(p, n)
            if vec != expected:
                raise PlumbingRelationError("first plumbing vector must be e3 or 0")
    result = ToricPlumbing(tuple(bundles), tuple(vectors), tuple(W))
    rods, vecs = _run_recursion(result.bundles, result.plumbing_vectors)
    if rods != result.rods_hnf:
        raise PlumbingRelationError("recursion does not regenerate the Hermite-form rods")
    # W is the checked output of hermite_normal_form up to negated pivot-free
    # columns, and its bundles, Det_2 and Det_3 values were found above:
    # check against those facts
    diag = _relation_diagnostics(result.bundles, rods, vecs, det2s[1:], bundles, det3s, True)
    if not diag.ok:
        raise PlumbingRelationError(
            f"decomposition produced invalid relations: {diag.first_failure}"
        )
    return result


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
    n = bundles[0].torus_factor + 3
    vecs = [_first_plumbing_vector(bundles[0].qrp[2], n)]
    vecs += [_as_vector(p) for p in plumbing_vectors]
    for v in vecs:
        if len(v) != n:
            raise ValueError("plumbing vector length must match the torus rank")
    w = [
        tuple(1 if i == 0 else 0 for i in range(n)),
        tuple(1 if i == 1 else 0 for i in range(n)),
    ]
    for i, b in enumerate(bundles):
        q, r, p = b.qrp
        w.append(
            vec_add(
                vec_add(vec_scale(q, w[i]), vec_scale(r, w[i + 1])),
                vec_scale(p, vecs[i]),
            )
        )
    return tuple(w), tuple(vecs)


def verify_plumbing_relations(bundles, plumbing_vectors) -> PlumbingDiagnostics:
    """Check the plumbing relations for a (bundles, vectors) collection.

    Diagnostics cover, in order: primitivity of each nonzero vector, the
    zero rule for p_i = 0 bundles, admissibility of every recursion-
    generated pair, primitivity of the (w_i, w_{i+1}, p_i) triples, the
    vanishing-entry rule, the pivot bounds, and that the generated
    sequence is in Hermite normal form.  All outcomes are reported, not
    just the first failure.
    """
    rods, vecs = _run_recursion(bundles, plumbing_vectors)
    mat = IntMatrix.from_columns(rods)
    in_hermite_form = hermite_normal_form(mat).H == mat
    # the generators run inside the checks, in the order the checks are
    # made; the roundtrip stops reading at the first triple that fails
    det2s = (det2(rods[i], rods[i + 1]) for i in range(1, len(bundles) + 1))
    det3s = (
        None
        if all(x == 0 for x in vec)
        else determinant_divisor(IntMatrix.from_columns([rods[i], rods[i + 1], vec]), 3)
        for i, vec in enumerate(vecs)
    )
    read_back = (triple_to_bundle(*rods[i : i + 3]) for i in range(len(vecs)))
    return _relation_diagnostics(
        bundles, rods, vecs, det2s, read_back, det3s, in_hermite_form
    )


def _relation_diagnostics(bundles, rods, vecs, det2s, read_back, det3s, in_hermite_form):
    """The diagnostics of verify_plumbing_relations, built from the
    recursion's rods and vectors and four facts about them:
    Det_2(w_{i+1}, w_{i+2}) for i = 1..l, the bundles read back off each
    rod triple, Det_3(w_i, w_{i+1}, p_i) for each nonzero vector (None for
    a zero one), and whether the rods are in Hermite form."""
    n = len(rods[0])
    l = len(bundles)
    checks = []

    for i, b in enumerate(bundles, start=1):
        p = b.qrp[2]
        vec = vecs[i - 1]
        if p == 0:
            checks.append(
                RelationCheck(
                    "zero_vector_rule",
                    i,
                    all(x == 0 for x in vec),
                    f"p_{i} = 0 so the plumbing vector must vanish, got {vec}",
                )
            )
        else:
            checks.append(
                RelationCheck(
                    "vector_primitive",
                    i,
                    is_primitive_vector(vec),
                    f"plumbing vector {vec}",
                )
            )

    for i, d in enumerate(det2s, start=1):
        checks.append(
            RelationCheck(
                "pair_admissible",
                i,
                d == 1,
                f"Det_2(w_{i + 1}, w_{i + 2}) = {d}",
            )
        )

    for i, d3 in enumerate(det3s, start=1):
        if d3 is None:
            continue
        checks.append(
            RelationCheck(
                "triple_primitive",
                i,
                d3 == 1,
                f"Det_3(w_{i}, w_{i + 1}, p_{i}) = {d3}",
            )
        )

    # last_used[k - 1]: the last coordinate used by p_1..p_{k-1}, -1 while
    # they all vanish
    last_used = []
    last = -1
    for vec in vecs:
        last_used.append(last)
        for j, x in enumerate(vec):
            if x != 0:
                last = max(last, j)

    # vanishing rule: a vector may reach at most one coordinate past the
    # last one used by the earlier nonzero vectors
    for kidx in range(2, l + 1):
        vk = vecs[kidx - 1]
        if last_used[kidx - 1] < 0:
            continue
        m = last_used[kidx - 1] + 2  # 1-based position one past the last used entry
        ok = all(vk[j] == 0 for j in range(m, n))
        checks.append(
            RelationCheck(
                "zeros_rule",
                kidx,
                ok,
                f"earlier vectors vanish from entry {m}; p_{kidx} = {vk}",
            )
        )

    # pivot rule: when p_k reaches one coordinate past everything used so
    # far, that entry of w_{k+2} is a new Hermite pivot bounding the ones
    # before it (rows 1 and 2 are always taken by e1, e2)
    for kidx in range(1, l + 1):
        vk = vecs[kidx - 1]
        nz = [j for j, x in enumerate(vk) if x != 0]
        if not nz:
            continue
        mk = nz[-1]
        edge = max(1, last_used[kidx - 1])
        if mk != edge + 1:
            continue
        wk2 = rods[kidx + 1]
        pivot = wk2[mk]
        ok = pivot > 0 and all(0 <= wk2[j] < pivot for j in range(mk))
        checks.append(
            RelationCheck(
                "pivot_rule",
                kidx,
                ok,
                f"w_{kidx + 2} = {wk2}, pivot position {mk + 1}",
            )
        )

    checks.append(
        RelationCheck(
            "hermite_form",
            -1,
            in_hermite_form,
            "generated rod structures must already be in Hermite normal form",
        )
    )

    # coherence: reading the bundles back off the generated rods must
    # reproduce the input bundles
    roundtrip_ok = True
    detail = ""
    try:
        for i, back in enumerate(read_back):
            if back != bundles[i]:
                roundtrip_ok = False
                detail = f"triple {i + 1} reads back as {back.to_json_dict()}"
                break
    except (InadmissibleCornerError, ValueError) as e:
        roundtrip_ok = False
        detail = str(e)
    checks.append(RelationCheck("bundle_roundtrip", -1, roundtrip_ok, detail))

    return PlumbingDiagnostics(tuple(checks), rods)


# ----------------------------------------------------------------------
# decomposition of the domain of outer communication


@dataclass(frozen=True)
class DocPiece:
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


@dataclass(frozen=True)
class DocDecomposition:
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
    for i, j in diagram.corners():
        d = det2(diagram.rods[i].structure, diagram.rods[j].structure)
        if d != 1:
            raise InadmissibleCornerError(
                f"corner between rods {i} and {j} is inadmissible (Det_2 = {d})", d
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
