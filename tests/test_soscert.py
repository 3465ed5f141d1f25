"""SOS certification: Gram families, exact certificates, dual evidence."""

import itertools
import math
import random
import sys
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _fraction_reference as reference
import _ipm_reference
from _helpers import random_square_sum
from sospencil.errors import CapacityError, PreconditionError
from sospencil.exactlinalg import SymMatrix, _is_psd_entries, is_psd, solve_sparse
from sospencil.parsing import parse_polynomial
from sospencil.polycore import Polynomial, build_basis, wronskian
from sospencil import soscert
from sospencil.soscert import (
    InfeasibilityEvidence,
    SosCertificate,
    artin_certify,
    artin_minimize,
    default_artin_candidates,
    sos_certify,
)

MOTZKIN = "z1^4*z2^2 + z1^2*z2^4 - 3*z1^2*z2^2 + 1"
CHOI_LAM = "z1^4*z2^2 + z2^4 + z1^2 - 3*z1^2*z2^2"
TERNARY_MOTZKIN = "z1^4*z2^2 + z1^2*z2^4 + z3^6 - 3*z1^2*z2^2*z3^2"
CHOI_LAM_TERNARY = "z1^4*z2^2 + z2^4*z3^2 + z3^4*z1^2 - 3*z1^2*z2^2*z3^2"
ROBINSON = (
    "z1^6 + z2^6 + 1 - z1^4*z2^2 - z1^2*z2^4 - z1^4 - z2^4 - z1^2 - z2^2 + 3*z1^2*z2^2"
)
# a sum of squares that the certifier leaves undecided; the stress
# operation of the wronskian-batch benchmark workload
STRESS_SUM = (
    "(-4*z3^2 + 3*z1 - 5*z2)^2 + (-5*z1*z3 - z2^2 + 1/2)^2"
    " + (-1/2*z1^2 - 1/2*z2*z3)^2"
)


def poly(text, nvars=None):
    return parse_polynomial(text, nvars=nvars)


def squares_total(cert):
    if not cert.squares:
        return Polynomial.zero(len(cert.basis.var_caps))
    total = Polynomial.zero(len(cert.basis.var_caps))
    for weight, ell in cert.squares:
        total = total + ell * ell * Polynomial.monomial((0,) * ell.nvars, weight)
    return total


def assert_certifies(F, cert):
    assert isinstance(cert, SosCertificate)
    total = squares_total(cert)
    if F.nvars == 0:
        # constants certify inside a one-variable ring
        F = Polynomial(total.nvars, {(0,) * total.nvars: c for _, c in F.terms()})
    assert total == F
    assert is_psd(cert.gram)
    assert all(d >= 0 for d in cert.D)


class TestCertifySuccess:
    @pytest.mark.parametrize(
        "text",
        [
            "z1^2",
            "z1^2 + 2*z1*z2 + z2^2",
            "4",
            "z1^4 + z2^4 + 2*z1^2*z2^2",
            "z1^2 - 2*z1 + 1",
            "2*z1^2 + 3*z2^2 + z1*z2",
        ],
    )
    def test_exact_reconstruction(self, text):
        F = poly(text)
        cert = sos_certify(F)
        assert_certifies(F, cert)

    def test_zero_polynomial(self):
        cert = sos_certify(Polynomial.zero(2))
        assert isinstance(cert, SosCertificate)
        assert cert.squares == ()

    def test_boundary_gram_with_forced_zero_diagonal(self):
        # x^2y^2(x^2+y^2-ish) style boundary case: every Gram is singular
        F = poly("z1^4*z2^2 + z1^2*z2^4")
        cert = sos_certify(F)
        assert_certifies(F, cert)

    def test_random_square_sums(self):
        rng = random.Random(90210)
        for _ in range(10):
            F = random_square_sum(rng, rng.randint(1, 3))
            cert = sos_certify(F)
            assert_certifies(F, cert)

    def test_face_case_with_rational_kernel(self):
        # every Gram matrix is singular (max min eigenvalue 0), but the
        # numeric optimum rounds exactly; acceptance criterion 5 sample #36
        F = poly("z1^4 - 2*z1^2 + 1", 3)
        assert_certifies(F, sos_certify(F))

    def test_face_case_with_irrational_kernel(self):
        # every Gram matrix annihilates m(x*) for a real zero x* whose z1 is
        # a root of 80 z1^3 - 168 z1 + 189, so the face has no rational
        # description; the rank-2 certificate is an extreme point that the
        # vertex hunt reaches. Acceptance criterion 5 sample #42
        F = poly("(-4/3*z1^2 + 4*z1*z2 - 9/2*z2)^2 + (-5*z1*z2 + 7/2)^2")
        assert_certifies(F, sos_certify(F))


class TestStageOrder:
    """After a failed rounding the face step runs; the vertex hunt is its fallback."""

    @pytest.mark.parametrize("text", [TERNARY_MOTZKIN, CHOI_LAM_TERNARY, MOTZKIN])
    def test_face_step_certifies_without_the_hunt(self, text, monkeypatch):
        def no_hunt(*args):
            raise AssertionError("the vertex hunt ran")

        monkeypatch.setattr(soscert, "_vertex_hunt", no_hunt)
        F = poly(text)
        s = default_artin_candidates(F.nvars)[0]  # the sum of the squared variables
        assert_certifies(s * s * F, sos_certify(s * s * F))

    def test_vertex_hunt_is_the_fallback(self, monkeypatch):
        # criterion-5 sample #42 (test_face_case_with_irrational_kernel):
        # its face has no rational description, so the face step finds no
        # certificate and the hunt does
        calls = []
        for name in ("_face_step", "_vertex_hunt"):

            def spy(*args, _name=name, _stage=getattr(soscert, name)):
                result = _stage(*args)
                calls.append((_name, result is not None))
                return result

            monkeypatch.setattr(soscert, name, spy)
        F = poly("(-4/3*z1^2 + 4*z1*z2 - 9/2*z2)^2 + (-5*z1*z2 + 7/2)^2")
        assert_certifies(F, sos_certify(F))
        assert calls == [("_face_step", False), ("_vertex_hunt", True)]


class TestBasisArgument:
    """A constant gets the basis of a one-variable ring."""

    def test_constant_over_one_variable(self):
        # a constant is lifted into a one-variable ring before its basis is built
        F = Polynomial(0, {(): Fraction(4)})
        cert = sos_certify(F)
        assert_certifies(F, cert)


def default_basis(F):
    caps = tuple(-(-F.degree_in(k + 1) // 2) for k in range(F.nvars))
    return build_basis(int(F.degree()) // 2, caps)


def sign_flips(F):
    """The sign vectors s in {0, 1}^d with s . beta even for every term beta of F."""
    return [
        s
        for s in itertools.product((0, 1), repeat=F.nvars)
        if all(sum(a * b for a, b in zip(s, beta)) % 2 == 0 for beta, _ in F.terms())
    ]


def sign_symmetric_inputs():
    """The ladder's forms, and a sum of squares with odd exponents that
    flipping z1 and z2 together fixes, each alone and times the square of
    sum z_k^2."""
    for text in (
        MOTZKIN,
        f"(z1^2 + z2^2)^2*({MOTZKIN})",
        CHOI_LAM,
        ROBINSON,
        TERNARY_MOTZKIN,
        CHOI_LAM_TERNARY,
        "(z1*z2 - 1)^2 + (z1^2 - z2^2)^2",
    ):
        F = poly(text)
        s = default_artin_candidates(F.nvars)[0]
        yield pytest.param(F, id=text)
        yield pytest.param(s * s * F, id=f"s^2*({text})")


class TestSignSymmetry:
    """Dropping the product classes that F's sign flips annihilate loses nothing."""

    @staticmethod
    def family(F, classes_of):
        """The family sos_certify solves over: the diagonally reduced one,
        or the whole basis's when the reduction pins a negative entry."""
        monos = default_basis(F).monomials
        alive, forced = soscert._diagonal_reduction(F, monos, soscert._pair_classes(monos))
        if forced is None:
            monos = [monos[i] for i in alive]
        classes = classes_of(monos)
        A0, missing = soscert._gram_over(F, monos, classes)
        assert not missing
        return A0, soscert._star_kernel(classes, len(monos)), len(monos)

    @pytest.mark.parametrize("F", sign_symmetric_inputs())
    def test_max_min_eig_unchanged(self, F):
        filtered = self.family(F, lambda monos: soscert._symmetric_classes(F, monos))
        full = self.family(F, soscert._pair_classes)
        assert filtered[0] == full[0]
        assert len(filtered[1]) < len(full[1])
        t_filtered = soscert._max_min_eig(*filtered).t
        t_full = soscert._max_min_eig(*full).t
        assert abs(t_filtered - t_full) <= 1e-7

    @pytest.mark.parametrize("F", sign_symmetric_inputs())
    def test_outcome_and_dual(self, F, monkeypatch):
        outcome = sos_certify(F)
        with monkeypatch.context() as patch:
            patch.setattr(
                soscert, "_symmetric_classes", lambda F, monos: soscert._pair_classes(monos)
            )
            unfiltered = sos_certify(F)
        assert type(outcome) is type(unfiltered)
        if isinstance(outcome, SosCertificate):
            assert_certifies(F, outcome)
            return
        assert outcome.dual_matrix is not None and unfiltered.dual_matrix is not None
        monos = default_basis(F).monomials
        W = np.array(outcome.dual_matrix)
        assert W.shape == (len(monos), len(monos))
        flips = sign_flips(F)
        for (i, mi), (j, mj) in itertools.product(enumerate(monos), repeat=2):
            if any(sum(a * (b + c) for a, b, c in zip(s, mi, mj)) % 2 for s in flips):
                assert W[i, j] == 0.0
        # a witness against the whole family, dropped classes included
        kernel = soscert._star_kernel(soscert._pair_classes(monos), len(monos))
        orthogonality = [
            sum(float(v) * W[i, j] * (1 if i == j else 2) for (i, j), v in S.entries())
            for S in kernel
        ]
        assert max(map(abs, orthogonality)) <= soscert.EVIDENCE_TOL

    def test_herglotz_wronskian_keeps_every_class(self):
        # W_1 of z1 - 1/(z1 + z2 + 1) - 2/(z1 + 2 z2 + 3): no sign flip fixes it
        q = poly("(z1 + z2 + 1)*(z1 + 2*z2 + 3)")
        p = poly("z1*(z1 + z2 + 1)*(z1 + 2*z2 + 3) - (z1 + 2*z2 + 3) - 2*(z1 + z2 + 1)")
        W = wronskian(q, p, 1)
        assert sign_flips(W) == [(0, 0)]
        monos = default_basis(W).monomials
        assert soscert._symmetric_classes(W, monos) == soscert._pair_classes(monos)


def annihilates(G, v):
    """G v = 0 exactly."""
    return not any(sum(a * x for a, x in zip(row, v)) for row in G.to_dense())


def family_with_face(rng, n, K, nzeros):
    """(A0, directions, zeros): a Gram family over n x n whose member at some
    lam is PSD of rank n - nzeros and annihilates the rational zeros. Each
    direction has trace 0, so the max-min-eig problem is bounded."""
    zeros = [
        [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(nzeros)
    ]
    span = solve_sparse([dict(enumerate(z)) for z in zeros], [0] * nzeros, n)[1]
    weights = [rng.randint(-2, 2) for _ in span]
    extra = [sum(w * b[i] for w, b in zip(weights, span)) for i in range(n)]
    G = SymMatrix(n)
    for u in [*span, extra]:
        for i in range(n):
            for j in range(i, n):
                G.add(i, j, u[i] * u[j])
    # linearly independent directions: distinct off-diagonal entries, and
    # differences of consecutive diagonal entries
    slots = [((i, j),) for i in range(n) for j in range(i + 1, n)]
    slots += [((i, i), (i + 1, i + 1)) for i in range(n - 1)]
    mats = []
    for slot in rng.sample(slots, K):
        value = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        mats.append(SymMatrix(n, {key: value * (-1) ** k for k, key in enumerate(slot)}))
    lam = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(K)]
    A0 = G - soscert._affine_point(SymMatrix(n), mats, lam)
    return A0, mats, zeros


class TestSolveFamily:
    """_solve_family is the one chain: impose zeros, solve, round, lift."""

    @pytest.mark.parametrize(
        "text",
        [
            f"(z1^2 + z2^2)^2*({MOTZKIN})",
            # the face leaves no free direction
            "196/9*z1^4 + z1^2*z2^2 + 140/3*z1^2*z2 + 10*z1*z2 + 25*z2^2 + 25",
        ],
    )
    def test_certify_and_face_step_share_it(self, text, monkeypatch):
        calls, vectors = [], []  # (caller, zeros, gram) of each solve
        solve_family, rounded = soscert._solve_family, soscert._rounded

        def solve_spy(A0, kernel_mats, size, zeros=()):
            gram, lam, solve = solve_family(A0, kernel_mats, size, zeros)
            calls.append((sys._getframe(1).f_code.co_name, zeros, gram))
            return gram, lam, solve

        def rounded_spy(values, bounds):
            # a generator's body runs in the frame that iterates it
            face_step = sys._getframe(1).f_code.co_name == "_face_step"
            for flat in rounded(values, bounds):
                if face_step:
                    vectors.append(list(flat))
                yield flat

        monkeypatch.setattr(soscert, "_solve_family", solve_spy)
        monkeypatch.setattr(soscert, "_rounded", rounded_spy)
        F = poly(text)
        cert = sos_certify(F)
        assert_certifies(F, cert)
        # the first solve has no zeros and does not round
        assert calls[0] == ("sos_certify", (), None)
        # every later solve is the face step's, on its rationalized vectors
        face = calls[1:]
        assert face and len(face) == len(vectors)
        for (caller, zeros, _gram), flat in zip(face, vectors):
            width = len(zeros[0])
            assert caller == "_face_step"
            assert zeros == [flat[r:r + width] for r in range(0, len(flat), width)]
        assert [gram is not None for _, _, gram in face] == [False] * (len(face) - 1) + [True]
        gram, zeros = face[-1][2], face[-1][1]
        assert all(annihilates(gram, v) for v in zeros)

    @pytest.mark.parametrize("seed", range(8))
    def test_known_rational_zeros(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 7)
        A0, mats, zeros = family_with_face(rng, n, rng.randint(n, 2 * n), rng.randint(1, 2))
        gram, lam, solve = soscert._solve_family(A0, mats, n, zeros=zeros)
        assert solve.t >= 0 and gram is not None and is_psd(gram)
        assert all(annihilates(gram, v) for v in zeros)
        # lam indexes the given directions, not the restricted ones
        assert gram == soscert._affine_point(A0, mats, lam)
        # gram is a member of the family: gram - A0 is in the span of mats
        keys = sorted({key for S in [A0, gram, *mats] for key, _ in S.entries()})
        rows = [{k: S.get(*key) for k, S in enumerate(mats) if S.get(*key)} for key in keys]
        rhs = [gram.get(*key) - A0.get(*key) for key in keys]
        assert solve_sparse(rows, rhs, len(mats)) is not None

    @pytest.mark.parametrize(
        "mats",
        [[], [SymMatrix(2, {(0, 1): Fraction(1)})]],
    )
    def test_zeros_no_member_annihilates(self, mats, monkeypatch):
        def no_solve(*args):
            raise AssertionError("a numeric solve ran")

        monkeypatch.setattr(soscert, "_max_min_eig", no_solve)
        # A(lam) (1, 0) = (1, lam_0) is never zero
        A0 = SymMatrix(2, {(0, 0): Fraction(1), (1, 1): Fraction(1)})
        zeros = [[Fraction(1), Fraction(0)]]
        assert soscert._solve_family(A0, mats, 2, zeros=zeros) == (None, None, None)

    @pytest.mark.parametrize("F", sign_symmetric_inputs())
    def test_without_zeros_is_solve_round_lift(self, F):
        A0, mats, n = TestSignSymmetry.family(
            F, lambda monos: soscert._symmetric_classes(F, monos)
        )
        gram, lam, solve = soscert._solve_family(A0, mats, n)
        expected = soscert._max_min_eig(A0, mats, n)
        assert (solve.lam, solve.t, solve.margin) == (expected.lam, expected.t, expected.margin)
        assert np.array_equal(solve.dual, expected.dual)
        if expected.t < -soscert._INFEAS_TOL:
            assert (gram, lam) == (None, None)
            return
        rounded = soscert._round_lam(A0, mats, expected.lam)
        assert lam == rounded
        assert gram == (None if rounded is None else soscert._affine_point(A0, mats, rounded))


class TestCertifyFailure:
    def test_motzkin_dual_evidence(self):
        ev = sos_certify(poly(MOTZKIN))
        assert isinstance(ev, InfeasibilityEvidence)
        assert ev.margin > 1e-6
        assert ev.residuals["trace_gap"] < 1e-6
        assert ev.residuals["kernel_orthogonality_max"] < 1e-6
        assert ev.residuals["dual_psd_violation"] < 1e-6

    def test_negative_constant(self):
        ev = sos_certify(poly("-1", 1))
        assert isinstance(ev, InfeasibilityEvidence)
        assert ev.margin > 1e-6

    def test_odd_degree_is_structurally_infeasible(self):
        ev = sos_certify(poly("z1^3 + z1"))
        assert isinstance(ev, InfeasibilityEvidence)
        assert "odd" in ev.reason

    def test_evidence_fields_default_to_none(self):
        ev = sos_certify(poly("z1^3 + z1"))
        assert ev == InfeasibilityEvidence(reason="odd total degree")
        assert (ev.dual_matrix, ev.margin, ev.residuals) == (None, None, None)

    def test_forced_negative_diagonal(self):
        ev = sos_certify(poly("z1^2 - 1"))
        assert isinstance(ev, InfeasibilityEvidence)
        assert ev.margin > 1e-6
        assert ev.reason is not None

    @pytest.mark.parametrize(
        "text, nvars",
        [
            (MOTZKIN, 2),
            ("z1^2 - 1", 1),
            (CHOI_LAM, 2),
            # rows z1 and z2 removed, the reduced family misses the PSD cone
            ("25*z1^2*z2^2 - 40*z1*z2 + 15", 2),
        ],
    )
    def test_evidence_over_full_default_basis(self, text, nvars):
        # exact preprocessing removes basis rows of each input, yet the
        # evidence must witness against the full family: checked here from
        # the product classes of the default basis alone
        F = poly(text, nvars)
        ev = sos_certify(F)
        assert isinstance(ev, InfeasibilityEvidence)
        assert ev.margin > 0
        caps = tuple(-(-F.degree_in(k + 1) // 2) for k in range(nvars))
        monos = build_basis(int(F.degree()) // 2, caps).monomials
        W = np.array(ev.dual_matrix)
        assert W.shape == (len(monos), len(monos))
        assert np.linalg.eigvalsh(W)[0] >= -1e-8
        assert abs(np.trace(W) - 1) <= 1e-8
        classes = {}
        for i, mi in enumerate(monos):
            for j, mj in enumerate(monos):
                beta = tuple(a + b for a, b in zip(mi, mj))
                classes.setdefault(beta, []).append(W[i, j])
        assert max(max(v) - min(v) for v in classes.values()) <= 1e-8
        value = sum(float(c) * np.mean(classes[beta]) for beta, c in F.terms())
        assert abs(value + ev.margin) <= 1e-8

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            # the default basis of degree-4 monomials in 5 variables has 126
            sos_certify(poly("z1^8 + z2^8 + z3^8 + z4^8 + z5^8"))


class TestInteriorPoint:
    @staticmethod
    def family(rng, size, count):
        mats = []
        for _ in range(count):
            S = SymMatrix(size)
            for _ in range(2):
                i, j = sorted((rng.randrange(size), rng.randrange(size)))
                S.set(i, j, Fraction(rng.randint(-3, 3) or 1, rng.choice((1, 2))))
            mats.append(S)
        return mats

    @staticmethod
    def spd(rng, size):
        B = np.array([[rng.uniform(-1, 1) for _ in range(size)] for _ in range(size)])
        return B @ B.T + size * np.eye(size)

    def test_sparse_products_match_dense(self, monkeypatch):
        # a tiny gather block forces the Schur complement through many blocks
        monkeypatch.setattr(soscert, "_SCHUR_BLOCK", 16)
        rng = random.Random(7)
        size = 5
        mats = self.family(rng, size, 9)
        fam = soscert._Family(mats, size, identity=-1.0)
        dense = [soscert._to_array(S, size) for S in mats] + [-np.eye(size)]
        X, Zi = self.spd(rng, size), self.spd(rng, size)
        G = np.array([[rng.uniform(-1, 1) for _ in range(size)] for _ in range(size)])
        y = np.array([rng.uniform(-1, 1) for _ in dense])
        schur = [[np.trace(Fk @ X @ Fl @ Zi) for Fl in dense] for Fk in dense]
        assert np.allclose(fam.schur(X, Zi), schur, rtol=1e-12, atol=1e-12)
        assert fam.schur(X, Zi).tobytes() == _ipm_reference.schur(fam, X, Zi).tobytes()
        assert np.allclose(fam.inner(G), [np.trace(Fk @ G) for Fk in dense])
        assert np.allclose(fam.combine(y), sum(c * Fk for c, Fk in zip(y, dense)))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_family_products_match_dense(self, data):
        size = data.draw(st.integers(1, 12), label="size")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        cells = [(i, j) for i in range(size) for j in range(i, size)]
        mats = []
        for _ in range(data.draw(st.integers(0, 40), label="count")):
            # 0, 1, 2 or many entries, diagonal ones included
            shape = data.draw(st.sampled_from(("none", "one", "two", "many")))
            many = int(rng.integers(3, max(3, len(cells)) + 1))
            entries = {"none": 0, "one": 1, "two": 2}.get(shape, many)
            chosen = rng.permutation(len(cells))[:entries]
            S = SymMatrix(size)
            for c in chosen:
                value = int(rng.integers(1, 4)) * int(rng.choice((-1, 1)))
                S.set(*cells[c], Fraction(value, int(rng.choice((1, 2)))))
            mats.append(S)
        identity = data.draw(st.sampled_from((None, -1.0, 1.0)), label="identity")
        block = data.draw(st.sampled_from(
            (1, size * size, 3 * size * size, soscert._SCHUR_BLOCK)
        ), label="block")

        dense = [soscert._to_array(S, size) for S in mats]
        if identity is not None:
            dense.append(identity * np.eye(size))
        dense = np.array(dense).reshape(-1, size, size)
        B, C = rng.uniform(-1, 1, (2, size, size))
        X, Zi = B @ B.T + np.eye(size), C @ C.T + np.eye(size)
        G = rng.uniform(-1, 1, (size, size))
        y = rng.uniform(-1, 1, len(dense))

        fam = soscert._Family(mats, size, identity=identity)
        with mock.patch.object(soscert, "_SCHUR_BLOCK", block):
            schur = fam.schur(X, Zi)
            assert schur.tobytes() == _ipm_reference.schur(fam, X, Zi).tobytes()
        inner, combined = fam.inner(G), fam.combine(y)

        def close(actual, expected):
            scale = 1.0 + np.abs(expected).max(initial=0.0)
            return np.allclose(actual, expected, rtol=1e-12, atol=1e-12 * scale)

        # tr(F_k X F_l Zi), tr(F_k G) and sum_k y_k F_k from dense matrices
        assert close(schur, np.einsum("kij,lji->kl", dense @ X, dense @ Zi))
        assert close(inner, np.einsum("kij,ji->k", dense, G))
        assert close(combined, np.einsum("k,kij->ij", y, dense))
        # a direction with no entries contributes exactly nothing
        for k, S in enumerate(mats):
            if S.is_zero():
                assert inner[k] == 0.0
                assert not schur[k].any() and not schur[:, k].any()

    def test_empty_direction_is_zero(self):
        S = SymMatrix(3)
        S.set(0, 1, Fraction(2))
        S.set(2, 2, Fraction(3))
        G = np.arange(9.0).reshape(3, 3)
        for mats in ([SymMatrix(3), S], [S, SymMatrix(3)]):
            empty = 0 if mats[0].is_zero() else 1
            fam = soscert._Family(mats, 3, identity=-1.0)
            assert fam.inner(G)[empty] == 0.0
            M = fam.schur(2 * np.eye(3), np.eye(3))
            assert not M[empty].any() and not M[:, empty].any()
            y = np.zeros(3)
            y[empty] = 5.0
            assert not fam.combine(y).any()

    def test_max_min_eig_without_kernel(self):
        A0 = SymMatrix(2)
        A0.set(0, 0, Fraction(3))
        A0.set(0, 1, Fraction(1))
        A0.set(1, 1, Fraction(3))
        solve = soscert._max_min_eig(A0, [], 2)
        assert solve.converged
        assert abs(solve.t - 2.0) < 1e-8
        # the dual witness concentrates on the bottom eigenvector (1, -1)
        assert np.allclose(solve.dual, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-6)
        assert abs(solve.margin + 2.0) < 1e-8

    def test_evidence_gate_withholds_failed_dual(self):
        solve = soscert._MaxMinEig(
            lam=(),
            t=-1.0,
            dual=np.eye(2) / 2,
            margin=1.0,
            residuals={
                "kernel_orthogonality_max": 1e-3,
                "dual_psd_violation": 0.0,
                "trace_gap": 0.0,
            },
            converged=False,
        )
        ev = soscert._numeric_evidence(solve)
        assert ev.dual_matrix is None and ev.margin is None
        assert "did not converge" in ev.reason
        assert "kernel_orthogonality_max" in ev.reason
        passed = soscert._numeric_evidence(
            soscert._MaxMinEig(
                lam=(),
                t=-1.0,
                dual=np.eye(2) / 2,
                margin=1.0,
                residuals={name: 0.0 for name in solve.residuals},
                converged=True,
            )
        )
        assert passed.margin == 1.0 and passed.dual_matrix is not None


def herglotz_w1(a, l0, poles):
    """W_1 = q dp/dz1 - p dq/dz1 of f = p / q = a z1 + l0 - sum c / (z1 + l)
    over the poles (c, l); f is Herglotz when a >= 0 and every c > 0, and a
    flipped companion negates one c."""
    factors = [f"(z1 + {l})" for _, l in poles]
    q = "*".join(factors)
    p = f"(({a})*z1 + ({l0}))*{q}" + "".join(
        f" - ({c})*" + ("*".join(factors[:k] + factors[k + 1:]) or "1")
        for k, (c, _) in enumerate(poles)
    )
    return wronskian(poly(q, 1), poly(p, 1), 1)


# a sum of squares on which the face step finds nothing, so the vertex hunt runs
STRESS_SQUARES = (
    "(-4*z3^2 + 3*z1 - 5*z2)^2 + (-5*z1*z3 - z2^2 + 1/2)^2 + (-1/2*z1^2 - 1/2*z2*z3)^2"
)


class TestIpmMatchesReference:
    """_ipm and _Family.schur give the plain formulation's results
    (tests/_ipm_reference.py) bit for bit."""

    @staticmethod
    def certify_checked(F, monkeypatch):
        """sos_certify(F), with every _ipm call checked against the
        reference; returns the families solved."""
        families = []
        ipm = soscert._ipm

        def checked(C, fam, b):
            y, X, converged = ipm(C, fam, b)
            y0, X0, converged0 = _ipm_reference._ipm(C, fam, b)
            assert y.tobytes() == y0.tobytes()
            assert X.tobytes() == X0.tobytes()
            assert converged == converged0
            families.append(fam)
            return y, X, converged

        monkeypatch.setattr(soscert, "_ipm", checked)
        sos_certify(F)
        return families

    @pytest.mark.parametrize(
        "text",
        [
            MOTZKIN,
            f"(z1^2 + z2^2)^2*({MOTZKIN})",
            CHOI_LAM,
            ROBINSON,
            TERNARY_MOTZKIN,
        ],
    )
    def test_forms(self, text, monkeypatch):
        assert self.certify_checked(poly(text), monkeypatch)

    @pytest.mark.parametrize(
        "a, l0, poles",
        [
            (1, 1, [(1, 1), (2, 3)]),
            (1, 1, [(1, 1), (-2, 3)]),
            ("1/2", -1, [(1, 1), (3, 2), (1, 4)]),
            ("1/2", -1, [(1, 1), (-3, 2), (1, 4)]),
        ],
    )
    def test_herglotz_wronskians(self, a, l0, poles, monkeypatch):
        assert self.certify_checked(herglotz_w1(a, l0, poles), monkeypatch)

    def test_vertex_hunt(self, monkeypatch):
        hunts = []
        hunt = soscert._vertex_hunt

        def spy(*args):
            hunts.append(args)
            return hunt(*args)

        monkeypatch.setattr(soscert, "_vertex_hunt", spy)
        assert len(self.certify_checked(poly(STRESS_SQUARES), monkeypatch)) > 1
        assert hunts

    def test_many_schur_blocks(self, monkeypatch):
        # six directions of the 18 x 18 family per Schur block
        monkeypatch.setattr(soscert, "_SCHUR_BLOCK", 6 * 18 * 18)
        families = self.certify_checked(poly(TERNARY_MOTZKIN), monkeypatch)
        assert max(len(fam.scatter) for fam in families) >= 3

    def test_breakdown_returns_start_iterate(self, monkeypatch):
        """Two equal kernel directions make the Schur matrix singular, so
        the first solve raises: both formulations return the start iterate,
        with no RuntimeWarning and numpy's error state as it was before."""
        S = SymMatrix(3)
        S.set(0, 1, Fraction(1))
        S.set(2, 2, Fraction(-1))
        fam = soscert._Family([S, S], 3, identity=-1.0)
        C = np.diag([1.0, 2.0, 3.0])
        b = np.array([0.0, 0.0, 1.0])
        solves = []
        solve1 = soscert._solve1

        def spy(*args, **kwargs):
            solves.append(args)
            return solve1(*args, **kwargs)

        monkeypatch.setattr(soscert, "_solve1", spy)
        before = np.geterr(), np.geterrcall()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = [soscert._ipm(C, fam, b), _ipm_reference._ipm(C, fam, b)]
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert (np.geterr(), np.geterrcall()) == before
        assert len(solves) == 1
        # start = max(10, sqrt(3), 1 + |C|) = 10
        for y, X, converged in results:
            assert y.tobytes() == np.zeros(3).tobytes()
            assert X.tobytes() == (10.0 * np.eye(3)).tobytes()
            assert converged is False

    def test_error_state_entered_once_per_solve(self, monkeypatch):
        entered, solved = [], []
        lapack_errors, ipm = soscert._lapack_errors, soscert._ipm

        def counted_errors():
            entered.append(1)
            return lapack_errors()

        def counted_ipm(C, fam, b):
            solved.append(1)
            return ipm(C, fam, b)

        monkeypatch.setattr(soscert, "_lapack_errors", counted_errors)
        monkeypatch.setattr(soscert, "_ipm", counted_ipm)
        F = poly(f"(z1^2 + z2^2)^2*({MOTZKIN})")
        assert_certifies(F, sos_certify(F))
        assert solved and len(entered) == len(solved)

    def test_schur_scatter_is_built_once(self, monkeypatch):
        # two directions per block; the middle block's directions have no
        # entries, so its scatter is empty and reduceat skips both
        monkeypatch.setattr(soscert, "_SCHUR_BLOCK", 2 * 4 * 4)
        rng = random.Random(3)
        mats = TestInteriorPoint.family(rng, 4, 5)
        mats[2:4] = [SymMatrix(4), SymMatrix(4)]
        fam = soscert._Family(mats, 4, identity=-1.0)
        fam.combine(np.arange(6.0))
        fam.inner(np.eye(4))
        assert fam.scatter is None  # a family only combined builds no scatter
        scatter = None
        for _ in range(2):
            X, Zi = TestInteriorPoint.spd(rng, 4), TestInteriorPoint.spd(rng, 4)
            M = fam.schur(X, Zi)
            assert M.tobytes() == _ipm_reference.schur(fam, X, Zi).tobytes()
            assert not M[2:4].any() and not M[:, 2:4].any()
            assert scatter is None or fam.scatter is scatter
            scatter = fam.scatter
        # each block scatters every entry of its directions twice
        entries = [len(S.entries()) for S in mats] + [4]
        assert [(l0, l1, len(index)) for l0, l1, index, _w, _n in scatter] == [
            (l0, l0 + 2, 2 * sum(entries[l0 : l0 + 2])) for l0 in (0, 2, 4)
        ]
        assert len(scatter[1][2]) == 0


@st.composite
def block_layouts(draw):
    """(A0, copies): a rational SymMatrix of order 1..8 made of one random
    block, placed once or twice with empty rows before, between and after.
    Two copies are identical, so their least eigenvalues tie exactly."""
    m = draw(st.integers(1, 8))
    block = {}
    for i in range(m):
        for j in range(i, m):
            if draw(st.booleans()):
                block[i, j] = Fraction(
                    draw(st.integers(-6, 6)), draw(st.sampled_from((1, 2, 3)))
                )
    count = draw(st.integers(1, 2 if 2 * m <= 8 else 1))
    gaps = [draw(st.integers(0, 2)) for _ in range(count + 1)]
    while count * m + sum(gaps) > 8:
        gaps[gaps.index(max(gaps))] -= 1
    A0 = SymMatrix(count * m + sum(gaps))
    copies, offset = [], 0
    for gap in gaps[:count]:
        offset += gap
        copies.append(range(offset, offset + m))
        for (i, j), value in block.items():
            A0.set(offset + i, offset + j, value)
        offset += m
    return A0, copies


def components(A0):
    """Connected components of A0's nonzero entries, empty rows alone,
    ordered by their smallest index."""
    comps = [{k} for k in range(A0.size)]
    for (i, j), _ in A0.entries():
        a = next(c for c in comps if i in c)
        b = next(c for c in comps if j in c)
        if a is not b:
            a |= b
            comps.remove(b)
    return sorted(sorted(c) for c in comps)


def assert_one_block_dual(W, A0):
    """W is exact +0.0 outside the rows and columns of one component of A0."""
    assert not np.any((W == 0) & np.signbit(W)), "W holds -0.0"
    support = set(np.flatnonzero(np.any(W != 0, axis=1)).tolist())
    owner = [c for c in components(A0) if support <= set(c)]
    assert owner, f"W spans more than one block: {sorted(support)}"
    return owner[0]


class TestNoDirectionSolve:
    """A family with no kernel directions is solved by eigendecomposition."""

    @settings(max_examples=80, deadline=None)
    @given(block_layouts())
    def test_matches_the_interior_point_method(self, layout):
        A0, copies = layout
        n = A0.size
        solve = soscert._max_min_eig(A0, [], n)
        C = soscert._to_array(A0, n)
        y, _X, converged = soscert._ipm(
            C, soscert._Family([], n, identity=-1.0), np.array([1.0])
        )
        assert converged and solve.converged and solve.lam == ()
        assert abs(solve.t - y[-1]) <= 1e-8 * (1 + abs(y[-1]))
        assert abs(solve.margin + solve.t) <= 1e-9
        evidence = soscert._numeric_evidence(solve)
        gate = "numeric dual failed the evidence gate: margin not positive"
        assert evidence.reason == (None if solve.margin > 0 else gate)
        # the dual lives on the first block, in index order, whose least
        # eigenvalue is t; a tie never goes to the second copy
        block = assert_one_block_dual(solve.dual, A0)
        for other in components(A0):
            low = np.linalg.eigh(C[np.ix_(other, other)])[0][0]
            assert low > solve.t if other < block else low >= solve.t
        assert np.linalg.eigh(C[np.ix_(block, block)])[0][0] == solve.t
        if len(copies) == 2:
            assert not solve.dual[list(copies[1])].any()

    def test_zero_eigenvector_entry_gives_positive_zero(self):
        # (1, 0, -1) / sqrt(2) spans the eigenspace of -3 in the block on
        # rows 1..3; 0.0 * -0.707 is -0.0, so v v^T holds -0.0 as computed
        block = {(1, 1): -1, (1, 2): 1, (1, 3): 2, (2, 2): 1, (2, 3): 1, (3, 3): -1}
        A0 = SymMatrix(4, {key: Fraction(value) for key, value in block.items()})
        solve = soscert._max_min_eig(A0, [], 4)
        assert abs(solve.t + 3) <= 1e-12
        assert assert_one_block_dual(solve.dual, A0) == [1, 2, 3]
        assert np.allclose(solve.dual[1:, 1:], [[0.5, 0, -0.5], [0, 0, 0], [-0.5, 0, 0.5]])

    @pytest.mark.parametrize(
        "text",
        [
            "2*z2 - z1^2",
            # flipping z1 and z2 together fixes it; the full
            # family's blocks are {1, z3} and {z1, z2}
            "5 - 3*z3 + 2*z3^2 - 3*z1^2 + 2*z1*z2",
        ],
    )
    def test_sign_symmetric_refutation(self, text, monkeypatch):
        solves = []

        def spy(A0, kernel_mats, size):
            solves.append((A0, kernel_mats))
            return max_min_eig(A0, kernel_mats, size)

        def no_ipm(*args):
            raise AssertionError("the interior point method ran")

        max_min_eig = soscert._max_min_eig
        monkeypatch.setattr(soscert, "_max_min_eig", spy)
        monkeypatch.setattr(soscert, "_ipm", no_ipm)
        F = poly(text)
        ev = sos_certify(F)
        assert isinstance(ev, InfeasibilityEvidence) and ev.margin > 0
        [(A0, kernel_mats)] = solves
        assert kernel_mats == [] and A0.size == len(default_basis(F))
        W = np.array(ev.dual_matrix)
        assert_one_block_dual(W, A0)
        assert ev.margin == -float(np.vdot(W, soscert._to_array(A0, A0.size)))

    def test_face_without_free_directions(self, monkeypatch):
        # the face of the max-min-eig optimum pins the whole family down:
        # the restricted solve has no directions and runs no _ipm
        log = []
        for name in ("_max_min_eig", "_ipm", "_face_step", "_vertex_hunt"):

            def spy(*args, _name=name, _stage=getattr(soscert, name)):
                directions = len(args[1]) if _name == "_max_min_eig" else None
                log.append((_name, directions))
                return _stage(*args)

            monkeypatch.setattr(soscert, name, spy)
        F = poly("196/9*z1^4 + z1^2*z2^2 + 140/3*z1^2*z2 + 10*z1*z2 + 25*z2^2 + 25")
        assert_certifies(F, sos_certify(F))
        assert log == [
            ("_max_min_eig", 3),
            ("_ipm", None),
            ("_face_step", None),
            ("_max_min_eig", 0),
        ]

# -- exact rounding on integers ------------------------------------------------

ROUNDING_VALUES = st.one_of(
    st.integers(-(10**6), 10**6).map(float),
    # exact binary fractions, whose own denominator may be within a bound
    st.builds(lambda k, m: k / 2**m, st.integers(-(2**20), 2**20), st.integers(0, 60)),
    # within 1e-12 of a small rational
    st.builds(
        lambda p, q, eps: p / q + eps,
        st.integers(-50, 50),
        st.integers(1, 200),
        st.floats(-1e-12, 1e-12),
    ),
    st.floats(-1e-300, 1e-300),  # tiny and subnormal values, +-0.0
    st.just(-0.0),
    st.floats(allow_nan=False, allow_infinity=False),
)
ROUNDING_BOUNDS = st.one_of(
    st.just(soscert._DENOMINATOR_BOUNDS),
    st.lists(
        st.one_of(st.integers(1, 12), st.integers(1, 10**7)),
        min_size=1,
        max_size=5,
        unique=True,
    ).map(lambda bounds: tuple(sorted(bounds))),
)


class TestRoundings:
    """One continued-fraction expansion gives every limit_denominator bound."""

    @settings(max_examples=1000, deadline=None)
    @given(ROUNDING_VALUES, ROUNDING_BOUNDS, st.booleans())
    def test_matches_limit_denominator(self, x, bounds, as_numpy):
        if as_numpy:
            x = np.float64(x)
        got = soscert._roundings(x, bounds)
        assert got == [Fraction(x).limit_denominator(b) for b in bounds]
        assert all(type(r) is Fraction for r in got)

    @pytest.mark.parametrize(
        "x, bounds",
        [
            (0.5, (1,)),  # 0 and 1 tie: the floor
            (0.25, (1, 2, 3)),  # 0 and 1/2 tie at bound 2
            (-0.75, (1, 2, 3)),
            (2.5, (1, 2)),
            (0.375, (2, 4, 7, 8)),
        ],
    )
    def test_ties(self, x, bounds):
        assert soscert._roundings(x, bounds) == [
            Fraction(x).limit_denominator(b) for b in bounds
        ]

    def test_repeated_rounding_is_left_out(self):
        bounds = soscert._DENOMINATOR_BOUNDS
        assert list(soscert._rounded([0.5, -0.25, 3.0], bounds)) == [
            [Fraction(1, 2), Fraction(-1, 4), Fraction(3)]
        ]
        # 10/81 is the rounding of x for each bound from 100 on
        for values in ([0.123456789], [0.123456789, math.pi]):
            per_bound = [[Fraction(x).limit_denominator(b) for x in values] for b in bounds]
            distinct = [r for k, r in enumerate(per_bound) if not k or r != per_bound[k - 1]]
            assert list(soscert._rounded(values, bounds)) == distinct
        assert len(distinct) == len(bounds) > len(list(soscert._rounded(values[:1], bounds)))

    def test_one_schedule_for_every_rounding(self, monkeypatch):
        # the workloads' stress sum of squares rounds lam after the first
        # solve, in the face step and in the vertex hunt
        calls = []  # (bounds, caller, caller's caller) of each rounding
        rounded = soscert._rounded

        def spy(values, bounds):
            frame = sys._getframe(1)
            calls.append((bounds, frame.f_code.co_name, frame.f_back.f_code.co_name))
            return rounded(values, bounds)

        monkeypatch.setattr(soscert, "_rounded", spy)
        sos_certify(poly(STRESS_SUM, 3))
        assert soscert._DENOMINATOR_BOUNDS == (10, 100, 10**4)
        assert all(bounds is soscert._DENOMINATOR_BOUNDS for bounds, _, _ in calls)
        assert {call[1:] for call in calls} >= {
            ("_round_lam", "_solve_family"),
            ("_face_step", "sos_certify"),
            ("_round_lam", "_vertex_hunt"),
        }

    def test_round_lam_tests_each_distinct_rounding_once(self, monkeypatch):
        tests = []

        def spy(entries, size):
            tests.append(dict(entries))
            return False

        monkeypatch.setattr(soscert, "_is_psd_entries", spy)
        S = SymMatrix(2, {(0, 1): Fraction(1)})
        assert soscert._round_lam(SymMatrix(2, {(0, 0): Fraction(1)}), [S], [0.5]) is None
        assert tests == [{(0, 0): 2, (0, 1): 1}]


@st.composite
def star_families(draw):
    """(A0, kernel_mats, lam): the star kernel of a random basis, a rational
    A0 and lam with zero entries; A0 cancels some entries of the point."""
    nvars = draw(st.integers(1, 3))
    degree = draw(st.integers(1, 2))
    basis = build_basis(degree, (degree,) * nvars)
    size = len(basis)
    kernel = soscert._star_kernel(soscert._pair_classes(basis.monomials), size)
    fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    lam = [draw(st.one_of(st.just(Fraction(0)), fractions)) for _ in kernel]
    return cancelling_anchor(draw, size, kernel, lam, fractions), kernel, lam


@st.composite
def face_families(draw):
    """(A0, free, mu): free directions built as the face step builds them,
    from sparse rational vectors over a star kernel, with an anchor that
    cancels some entries of the point."""
    A0, kernel, _ = draw(star_families())
    size = A0.size
    fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    free = []
    for _ in range(draw(st.integers(0, 4))):
        h = [draw(st.one_of(st.just(Fraction(0)), fractions)) for _ in kernel]
        free.append(reference.affine_point(SymMatrix(size), kernel, h))
    mu = [draw(st.one_of(st.just(Fraction(0)), fractions)) for _ in free]
    return cancelling_anchor(draw, size, free, mu, fractions), free, mu


def cancelling_anchor(draw, size, mats, lam, fractions):
    """A random rational anchor, some diagonal shifted by 100 so that the
    point can be PSD, and some entries set to cancel sum lam_i S_i."""
    A0 = SymMatrix(size)
    for i in range(size):
        for j in range(i, size):
            if draw(st.booleans()):
                A0.set(i, j, draw(fractions))
        if draw(st.booleans()):
            A0.add(i, i, 100)
    moving = reference.affine_point(SymMatrix(size), mats, lam)
    for (i, j), value in moving.entries():
        if draw(st.booleans()):
            A0.set(i, j, -value)
    return A0


def assert_same_point(A0, mats, lam):
    expected = reference.affine_point(A0, mats, lam)
    got = soscert._affine_point(A0, mats, lam)
    # the same Fractions, none zero, in SymMatrix.add's order
    assert list(got.entries()) == list(expected.entries())
    assert all(type(v) is Fraction and v for _, v in got.entries())
    sums, den = soscert._affine_numerators(A0, mats, lam)
    assert den > 0 and all(type(n) is int and n for n in sums.values())
    assert {key: Fraction(n, den) for key, n in sums.items()} == dict(expected.entries())
    assert _is_psd_entries(sums.items(), A0.size) == is_psd(expected)
    return expected


class TestAffinePoint:
    """The integer Gram point equals the Fraction sum entry for entry."""

    @settings(max_examples=150, deadline=None)
    @given(star_families())
    def test_star_kernel_family(self, family):
        assert_same_point(*family)

    @settings(max_examples=100, deadline=None)
    @given(face_families())
    def test_face_step_family(self, family):
        assert_same_point(*family)

    @settings(max_examples=50, deadline=None)
    @given(star_families())
    def test_free_directions(self, family):
        A0, kernel, lam = family
        assert_same_point(SymMatrix(A0.size), kernel, lam)

    def test_cancelled_entry_is_not_stored(self):
        A0 = SymMatrix(2, {(0, 0): Fraction(1), (0, 1): Fraction(1, 2)})
        S = SymMatrix(2, {(0, 1): Fraction(1), (1, 1): Fraction(-2)})
        T = SymMatrix(2, {(0, 1): Fraction(3)})
        point = assert_same_point(A0, [S, T], [Fraction(1, 4), Fraction(-1, 4)])
        assert dict(point.entries()) == {(0, 0): 1, (1, 1): Fraction(-1, 2)}
        zero_lam = assert_same_point(A0, [S, T], [Fraction(0), Fraction(0)])
        assert zero_lam == A0


class TestPairClassesOnce:
    @pytest.mark.parametrize("F", sign_symmetric_inputs())
    def test_alive_classes_match_a_fresh_build(self, F):
        monos = default_basis(F).monomials
        classes = soscert._symmetric_classes(F, monos)
        alive, forced = soscert._diagonal_reduction(F, monos, classes)
        if forced is not None:
            return
        fresh = soscert._symmetric_classes(F, [monos[i] for i in alive])
        derived = soscert._alive_classes(classes, alive)
        # the same classes, each with the same pairs in the same order
        assert derived == {beta: pairs for beta, pairs in fresh.items() if pairs}

    def test_one_build_per_call(self, monkeypatch):
        calls = []
        pair_classes = soscert._pair_classes

        def spy(monos):
            calls.append(len(monos))
            return pair_classes(monos)

        monkeypatch.setattr(soscert, "_pair_classes", spy)
        F = poly(f"(z1^2 + z2^2)^2*({MOTZKIN})")
        assert_certifies(F, sos_certify(F))
        assert calls == [len(default_basis(F))]


class TestStackedFactorizations:
    """One stacked LAPACK call per pair, as _ipm makes it under
    soscert._lapack_errors, gives the per-matrix results bitwise."""

    @staticmethod
    def inverse_choleskys(XZ):
        """_ipm's L, with L[0] X L[0]^T = I and L[1] Z L[1]^T = I."""
        with soscert._lapack_errors():
            return soscert._inv(soscert._cholesky(XZ, signature="d->d"), signature="d->d")

    @staticmethod
    def solve(M, r):
        """_ipm's Schur solve M^-1 r."""
        with soscert._lapack_errors():
            return soscert._solve1(M, r, signature="dd->d")

    @pytest.mark.parametrize("N", range(1, 31))
    def test_bitwise_equal_to_per_matrix(self, N):
        rng = np.random.default_rng(N)
        for _ in range(3):
            B, C, E, G = rng.standard_normal((4, N, N))
            X, Z = B @ B.T + 0.1 * np.eye(N), C @ C.T + 0.1 * np.eye(N)
            dX, dZ = E + E.T, G + G.T
            L = self.inverse_choleskys(np.stack((X, Z)))
            singles = [np.linalg.inv(np.linalg.cholesky(P)) for P in (X, Z)]
            assert L[0].tobytes() == singles[0].tobytes()
            assert L[1].tobytes() == singles[1].tobytes()
            assert (L[1].T @ L[1]).tobytes() == (singles[1].T @ singles[1]).tobytes()
            # a PSD direction never limits the step
            for D in ((dX, dZ), (dX, B @ B.T), (C @ C.T, dZ)):
                expected = []
                for Li, Di in zip(singles, D):
                    low = float(np.linalg.eigvalsh(Li @ Di @ Li.T)[0])
                    expected.append(math.inf if low >= 0 else -1.0 / low)
                with soscert._lapack_errors():
                    assert soscert._max_steps(L, np.stack(D)) == expected

    @pytest.mark.parametrize("N", range(1, 31))
    def test_schur_solve_bitwise_equal_to_solve(self, N):
        rng = np.random.default_rng(N)
        for _ in range(3):
            B, C = rng.standard_normal((2, N, N))
            r = rng.standard_normal(N)
            for M in (B, C @ C.T + 0.1 * np.eye(N)):
                assert self.solve(M, r).tobytes() == np.linalg.solve(M, r).tobytes()

    def test_factorization_failure_raises(self):
        """An indefinite X or Z and a singular M raise LinAlgError, with no
        RuntimeWarning and numpy's error state as it was before the call."""
        breakdowns = [
            lambda: self.inverse_choleskys(np.stack((np.eye(2), -np.eye(2)))),
            lambda: self.inverse_choleskys(np.stack((np.diag([1.0, -1.0]), np.eye(2)))),
            lambda: self.solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2)),
        ]
        for call in breakdowns:
            before = np.geterr(), np.geterrcall()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(np.linalg.LinAlgError):
                    call()
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
            assert (np.geterr(), np.geterrcall()) == before


class TestArtin:
    def test_candidate_list_order(self):
        F = poly(MOTZKIN)
        s, cert = artin_certify(F, candidates=[poly("z1^2 + z2^2")])
        assert s == poly("z1^2 + z2^2")
        assert_certifies(s * s * F, cert)

    def test_default_candidates_cover_motzkin(self):
        F = poly(MOTZKIN)
        s, cert = artin_certify(F)
        assert s in default_artin_candidates(2)
        assert_certifies(s * s * F, cert)

    def test_no_candidate_in_family(self):
        # -1 stays negative after multiplying by any square, so every
        # candidate fails and the search reports that with None
        assert artin_certify(poly("-1", 2), candidates=[poly("z1", 2)]) is None

    def test_minimize_drops_redundant_power(self):
        F = poly(MOTZKIN)
        s = poly("z1^2 + z2^2")
        reduced, cert = artin_minimize(F, [(s, 2)])
        assert reduced == [(s, 1)]
        assert_certifies(s * s * F, cert)

    def test_minimize_requires_certifiable_start(self):
        with pytest.raises(PreconditionError):
            artin_minimize(poly("-1", 1), [(poly("z1"), 1)])
