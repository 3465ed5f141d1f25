"""The three workloads: seeded inputs, the operations run on them, and the
checks made on each output.

Every input is generated here from the run's seed; the program receives
only the resulting polynomials. A round is the fixed list of operations a
workload builds once, in an order the seed shuffles so that operations of
one kind are spread over the round; a run repeats whole rounds. The
checks recompute what each output claims with the independent code in
``exact.py`` (and numpy for the floating-point ones); they compare
against no stored output.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import exact as ex
import sospencil as sp
from sospencil import cli

# Slice-scan grids, as the program documents its defaults: pinned
# coordinates on the half-integers of [-3, 3]; z1 = x + iy with x on the
# same lattice and y in {0.1, 0.5, 1, 2}.
REAL_AXIS = np.arange(-6, 7) / 2.0
HALFPLANE_RE = np.repeat(REAL_AXIS, 4)
HALFPLANE_IM = np.tile([0.1, 0.5, 1.0, 2.0], 13)
SCAN_TOL = 1e-9  # the program's pass/fail threshold on min Im f
MIN_IM_TOL = 1e-9  # allowed |program min_im - closed-form min|, relative to max(1, |min|)
DUAL_TOL = 1e-8  # eigenvalue and trace tolerance on an emitted dual matrix
CLASS_TOL = 1e-7  # spread of the dual over one product class, and |<W, F> + margin|


class Failed(Exception):
    """The program gave no answer: it raised, or reported an inconclusive
    outcome where an answer exists."""


class Wrong(Exception):
    """The program's answer is incorrect."""


def expect(condition, message):
    if not condition:
        raise Wrong(message)


@dataclass(frozen=True)
class Raised:
    """An operation that raised instead of returning."""

    kind: str
    message: str


@dataclass
class Op:
    kind: str
    call: object  # () -> result
    check: object  # result -> None, raises Failed or Wrong; never sees Raised


def to_program(poly, nvars):
    return sp.Polynomial(nvars, poly)


def from_program(poly):
    return dict(poly.terms())


def rational_point(rng, nvars):
    return tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(nvars))


# -- checks shared by several operations ----------------------------------------


def check_squares(squares, D, target):
    """A certificate: every weight and D entry is >= 0 and sum w*g^2 == target."""
    expect(all(w >= 0 for w, _ in squares), "negative square weight")
    expect(all(d >= 0 for d in D), "negative D entry")
    expect(ex.square_sum(squares) == target, "squares do not expand to the input")


def default_basis(F):
    nvars = len(next(iter(F)))
    degree = max(sum(e) for e in F)
    caps = [-(-max(e[k] for e in F) // 2) for k in range(nvars)]
    return ex.basis_monomials(degree // 2, caps)


def check_evidence(margin, dual, F):
    """Numeric dual evidence, where it carries a margin: W >= 0, tr W = 1,
    W constant over each product class of the default basis, and
    sum_beta F_beta y_beta == -margin."""
    if margin is None:
        return
    expect(margin > 0, f"margin {margin} not positive")
    W = np.array(dual, dtype=float)
    monos = default_basis(F)
    expect(W.shape == (len(monos), len(monos)), "dual matrix size is not the basis size")
    expect(np.linalg.eigvalsh((W + W.T) / 2)[0] >= -DUAL_TOL, "dual matrix not PSD")
    expect(abs(np.trace(W) - 1) <= DUAL_TOL, "dual trace is not 1")
    classes = {}
    for i, mi in enumerate(monos):
        for j, mj in enumerate(monos):
            beta = tuple(a + b for a, b in zip(mi, mj))
            classes.setdefault(beta, []).append(W[i, j])
    spread = max(max(v) - min(v) for v in classes.values())
    expect(spread <= CLASS_TOL, f"dual varies by {spread:.3g} within a product class")
    value = sum(float(c) * np.mean(classes[beta]) for beta, c in F.items())
    scale = 1 + sum(abs(float(c)) for c in F.values())
    expect(abs(value + margin) <= CLASS_TOL * scale, "<W, F> differs from -margin")


def check_pencil_identity(pencil, left, right, points):
    """Psi(zeta) (A_0 + sum z_k A_k) Psi(z)^T == left(zeta) * right(z)."""
    monos = pencil.basis.monomials
    for zeta, z in points:
        u = [ex.monomial_value(m, zeta) for m in monos]
        v = [ex.monomial_value(m, z) for m in monos]
        total = Fraction(0)
        for k, matrix in enumerate(pencil.matrices):
            weight = Fraction(1) if k == 0 else z[k - 1]
            for (i, j), value in matrix.entries():
                pair = u[i] * v[j] + (u[j] * v[i] if i != j else 0)
                total += weight * value * pair
        expect(
            total == ex.evaluate(left, zeta) * ex.evaluate(right, z),
            "pencil identity fails at a sample point",
        )


def dense(matrix):
    rows = [[Fraction(0)] * matrix.size for _ in range(matrix.size)]
    for (i, j), value in matrix.entries():
        rows[i][j] = rows[j][i] = value
    return rows


# -- Herglotz functions ----------------------------------------------------------


@dataclass
class Herglotz:
    """f = a*z1 + l0 - sum c_k / (z1 + l_k) with l_k affine in z2..zd.

    With a >= 0, every c_k > 0 and the l_k's slopes >= 0, q has no zero in
    the poly-halfplane and W_1 = a q^2 + sum c_k prod_{j != k} (z1 + l_j)^2
    is a sum of squares. A flipped companion negates one c_k.
    """

    d: int
    a: Fraction
    l0: dict
    poles: list  # (c_k, constant b_k, slopes of l_k on z2..zd)

    def factor(self, k):
        _, b, slopes = self.poles[k]
        d = self.d
        return ex.add(
            ex.var(1, d), ex.const(b, d), *(ex.var(j + 2, d, s) for j, s in enumerate(slopes))
        )

    def others(self, k):
        return ex.product(
            [self.factor(j) for j in range(len(self.poles)) if j != k], self.d
        )

    @property
    def q(self):
        return ex.product([self.factor(k) for k in range(len(self.poles))], self.d)

    @property
    def p(self):
        d = self.d
        head = ex.mul(ex.add(ex.var(1, d, self.a), self.l0), self.q)
        return ex.add(
            head,
            *(ex.scale(self.others(k), -c) for k, (c, _, _) in enumerate(self.poles)),
        )

    @property
    def w1(self):
        """W_1[q, p] in closed form."""
        terms = [ex.scale(ex.mul(self.q, self.q), self.a)]
        for k, (c, _, _) in enumerate(self.poles):
            other = self.others(k)
            terms.append(ex.scale(ex.mul(other, other), c))
        return ex.add(*terms)

    @property
    def herglotz(self):
        return all(c > 0 for c, _, _ in self.poles)

    def flipped(self, k):
        poles = [(-c if j == k else c, b, s) for j, (c, b, s) in enumerate(self.poles)]
        return Herglotz(self.d, self.a, self.l0, poles)

    def negative_point(self):
        """Where W_1 < 0 if some c_k < 0: z1 on that pole, z2..zd = 0 (pole
        constants are distinct, so no other factor vanishes there)."""
        k = next(k for k, (c, _, _) in enumerate(self.poles) if c < 0)
        return (-self.poles[k][1],) + (Fraction(0),) * (self.d - 1)

    def closed_form_min_im(self):
        """min Im f over the default slice grid, from
        Im f = a*y + sum c_k*y / |z1 + l_k(x)|^2."""
        xs = np.array(np.meshgrid(*([REAL_AXIS] * (self.d - 1)), indexing="ij"))
        xs = xs.reshape(self.d - 1, -1).T if self.d > 1 else np.zeros((1, 0))
        u, y = HALFPLANE_RE[None, :], HALFPLANE_IM[None, :]
        im = float(self.a) * y + 0 * u
        for c, b, slopes in self.poles:
            shift = float(b) + xs @ np.array([float(s) for s in slopes])
            im = im + float(c) * y / ((u + shift[:, None]) ** 2 + y**2)
        return float(im.min()), im.size


POLE_CONSTANTS = tuple(Fraction(k, 2) for k in range(1, 7))
SLOPES = (Fraction(1, 2), Fraction(1), Fraction(2))
RESIDUES = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3))
LINEAR = (Fraction(1, 2), Fraction(1), Fraction(2))
OFFSETS = tuple(Fraction(k, 2) for k in (-4, -3, -2, -1, 1, 2, 3, 4))


def herglotz(rng, d, npoles, linear=True):
    """Seeded Herglotz function whose coefficients are all nonzero, so that
    its term structure depends only on (d, npoles, linear). Without the
    linear part, a = 0 and l0 is a constant."""
    poles = [
        (rng.choice(RESIDUES), b, tuple(rng.choice(SLOPES) for _ in range(d - 1)))
        for b in rng.sample(POLE_CONSTANTS, npoles)
    ]
    l0 = ex.const(rng.choice(OFFSETS), d)
    if not linear:
        return Herglotz(d, Fraction(0), l0, poles)
    l0 = ex.add(l0, *(ex.var(j, d, rng.choice(SLOPES)) for j in range(2, d + 1)))
    return Herglotz(d, rng.choice(LINEAR), l0, poles)


def flipped(rng, f):
    return f.flipped(rng.randrange(len(f.poles)))


def flipped_on_grid(rng, f):
    """A flipped companion whose closed-form Im f falls below -SCAN_TOL on the grid."""
    for k in rng.sample(range(len(f.poles)), len(f.poles)):
        g = f.flipped(k)
        if g.closed_form_min_im()[0] < -SCAN_TOL:
            return g
    raise ValueError("no flipped companion is negative on the grid")


# -- ladder ------------------------------------------------------------------------

MOTZKIN = "z1^4*z2^2 + z1^2*z2^4 - 3*z1^2*z2^2 + 1"
CHOI_LAM = "z1^4*z2^2 + z2^4 + z1^2 - 3*z1^2*z2^2"
ROBINSON = (
    "z1^6 + z2^6 + 1 - z1^4*z2^2 - z1^2*z2^4 - z1^4 - z2^4 - z1^2 - z2^2 + 3*z1^2*z2^2"
)
TERNARY_MOTZKIN = "z1^4*z2^2 + z1^2*z2^4 + z3^6 - 3*z1^2*z2^2*z3^2"
# Choi and Lam's ternary sextic S: its Artin certificate costs about as much
# as the ternary Motzkin form's, so that the ladder's tail, which needs ten
# samples beyond it, falls inside a group of at least 20 samples.
CHOI_LAM_TERNARY = "z1^4*z2^2 + z2^4*z3^2 + z3^4*z1^2 - 3*z1^2*z2^2*z3^2"
# s^(2m) M for m < LADDER_RUNGS. The next rung (m = 2, N = 34) alone took
# three fifths of a round: with at most a dozen rounds in a run, the tail
# fell on the fastest of its few samples and moved with each one. It is a
# reference figure instead, as is m = 3.
LADDER_RUNGS = 2


def cli_call(argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    return call


def cli_doc(result, code):
    returned, out, err = result
    if returned == 2:
        raise Failed(err.strip().replace("\n", " "))
    expect(returned == code, f"exit code {returned}, expected {code}")
    return json.loads(out)


def cli_certificate(cert, target, nvars):
    squares = [
        (Fraction(*sq["weight"]), ex.parse_rendered(sq["polynomial"], nvars))
        for sq in cert["squares"]
    ]
    check_squares(squares, [Fraction(*d) for d in cert["D"]], target)


def ladder_ops(rng):
    """Exact and SDP work through the CLI: the Motzkin ladder s^(2m) M and the
    classical nonnegative non-SOS forms. The seed only orders the round."""
    ops = []

    def sos(F, nvars, is_sos):
        def check(result):
            doc = cli_doc(result, 0 if is_sos else 1)
            if is_sos:
                expect(doc["status"] == "certificate", "no certificate")
                cli_certificate(doc["certificate"], F, nvars)
            else:
                ev = doc["evidence"]
                expect(doc["status"] == "infeasible", "certified a non-SOS form")
                check_evidence(ev["margin"], ev["dual_matrix"], F)

        return Op("sos", cli_call(["sos", ex.render(F)]), check)

    def artin(F, nvars, minimize):
        s = ex.coordinate_square_sum(nvars)

        def check(result):
            doc = cli_doc(result, 0)
            expect(doc["status"] == "certificate", "no denominator found")
            expect(
                ex.parse_rendered(doc["denominator"], nvars) == s,
                "denominator is not the coordinate sum of squares",
            )
            cli_certificate(doc["certificate"], ex.mul(ex.mul(s, s), F), nvars)
            if minimize:
                reduced = doc["minimized"]
                denominator = ex.const(1, nvars)
                for text, mult in reduced["factors"]:
                    factor = ex.parse_rendered(text, nvars)
                    expect(factor == s, "minimized factor is not the coordinate sum of squares")
                    denominator = ex.mul(denominator, ex.power(factor, mult, nvars))
                target = ex.mul(ex.mul(denominator, denominator), F)
                cli_certificate(reduced["certificate"], target, nvars)

        argv = ["artin", ex.render(F)] + (["--minimize"] if minimize else [])
        return Op("artin-minimize" if minimize else "artin", cli_call(argv), check)

    M = ex.parse_rendered(MOTZKIN, 2)
    s2 = ex.power(ex.coordinate_square_sum(2), 2, 2)
    for m in range(LADDER_RUNGS):
        ops.append(sos(ex.mul(ex.power(s2, m, 2), M), 2, m > 0))
    for text, nvars in ((CHOI_LAM, 2), (ROBINSON, 2), (TERNARY_MOTZKIN, 3)):
        F = ex.parse_rendered(text, nvars)
        ops.append(sos(F, nvars, False))
        ops.append(artin(F, nvars, False))
    ops.append(artin(M, 2, False))
    ops.append(artin(M, 2, True))
    ops.append(artin(ex.parse_rendered(ROBINSON, 2), 2, True))
    ops.append(artin(ex.parse_rendered(CHOI_LAM_TERNARY, 3), 3, False))
    rng.shuffle(ops)
    return ops


# -- wronskian-batch -----------------------------------------------------------------

# (d, poles) slots of the batch: the shapes on which no operation fails for
# any seed. See the README for the shapes left out and why.
BATCH_SHAPES = ((1, 1), (1, 2), (1, 3), (2, 1), (3, 1))
BATCH_REPLICAS = 20
REALIZED_POLES = 1  # realizations run on one-pole functions only: see the README
POLARIZATION_PAIRS = 20
KERNEL_BASES = 10

# Two operations the program fails on today, kept in every round.
STRESS_SQUARES = (
    "-4*z3^2 + 3*z1 - 5*z2",
    "-5*z1*z3 - z2^2 + 1/2",
    "-1/2*z1^2 - 1/2*z2*z3",
)
THREE_POLES = Herglotz(
    1,
    Fraction(0),
    {},
    [(Fraction(1), Fraction(b), ()) for b in (0, 1, 2)],
)


def wronskian_op(f):
    Q, P = to_program(f.q, f.d), to_program(f.p, f.d)
    W1 = f.w1

    def check(result):
        expect(from_program(result) == W1, "Wronskian differs from its closed form")

    return Op("wronskian", lambda: sp.wronskian(Q, P, 1), check)


def certify_op(F, nvars, kind, negative_at=None):
    """sos_certify on F, a sum of squares unless negative_at is a point
    where F < 0."""
    program_F = to_program(F, nvars)

    def check(result):
        if negative_at is not None:
            expect(ex.evaluate(F, negative_at) < 0, "input is not negative at its witness point")
        if isinstance(result, sp.SosCertificate):
            expect(negative_at is None, "certified a polynomial that is negative somewhere")
            check_squares([(w, from_program(g)) for w, g in result.squares], result.D, F)
            return
        check_evidence(result.margin, result.dual_matrix, F)
        if negative_at is None:
            if result.margin is not None:
                raise Wrong("refuted a sum of squares")
            raise Failed(f"inconclusive on a sum of squares: {result.reason}")

    return Op(kind, lambda: sp.sos_certify(program_F), check)


def realization_op(f, rng):
    P, Q, S = to_program(f.p, f.d), to_program(f.q, f.d), to_program(ex.const(1, f.d), f.d)
    points = [(rational_point(rng, f.d), rational_point(rng, f.d)) for _ in range(2)]
    p, q = f.p, f.q

    def check(result):
        check_pencil_identity(result.pencil, q, p, points)
        expect(ex.is_psd(dense(result.pencil.matrices[1])), "A_1 is not PSD")

    return Op("realize", lambda: sp.wronskian_realization(P, Q, S), check)


def random_poly(rng, nvars, max_degree, terms):
    out = {}
    for _ in range(terms):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(nvars)] += 1
        coeff = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.choice((1, 2, 3)))
        out = ex.add(out, {tuple(exps): coeff})
    return out or ex.const(1, nvars)


def polarization_op(rng):
    d = rng.randint(1, 3)
    q, p = random_poly(rng, d, 3, rng.randint(1, 3)), random_poly(rng, d, 3, rng.randint(1, 3))
    Q, P = to_program(q, d), to_program(p, d)
    points = [(rational_point(rng, d), rational_point(rng, d)) for _ in range(2)]

    def call():
        pencil = sp.product_polarization(Q, P)
        return pencil, sp.verify_pencil(pencil, Q, P)

    def check(result):
        pencil, (ok, issues) = result
        expect(ok and not issues, f"verify_pencil rejected the pencil: {issues}")
        check_pencil_identity(pencil, q, p, points)

    return Op("polarize", call, check)


def kernel_op(rng):
    d = rng.randint(1, 3)
    caps = tuple(rng.randint(1, 3) for _ in range(d))
    total = rng.randint(1, 3)
    basis = sp.build_basis(total, caps)
    monos = ex.basis_monomials(total, caps)
    classes = {}
    for i, mi in enumerate(monos):
        for mj in monos[i:]:
            beta = tuple(a + b for a, b in zip(mi, mj))
            classes[beta] = classes.get(beta, 0) + 1
    expected = sum(n - 1 for n in classes.values())

    def check(result):
        expect(len(result) == expected, f"{len(result)} kernel elements, expected {expected}")
        for element in result:
            form = {}
            for (i, j), value in element.matrix.entries():
                beta = tuple(a + b for a, b in zip(basis.monomials[i], basis.monomials[j]))
                form = ex.add(form, {beta: value if i == j else 2 * value})
            expect(not form and not element.matrix.is_zero(), "kernel element's form is nonzero")

    return Op("kernel_basis", lambda: sp.kernel_basis(basis), check)


def batch_ops(rng):
    """Many small library calls on seeded Herglotz functions."""
    ops = []
    for d, npoles in BATCH_SHAPES:
        for _ in range(BATCH_REPLICAS):
            f = herglotz(rng, d, npoles)
            ops.append(wronskian_op(f))
            ops.append(certify_op(f.w1, d, "sos_certify"))
            if npoles <= REALIZED_POLES:
                ops.append(realization_op(f, rng))
            g = flipped(rng, f)
            ops.append(certify_op(g.w1, d, "sos_certify_flipped", g.negative_point()))
    ops += [polarization_op(rng) for _ in range(POLARIZATION_PAIRS)]
    ops += [kernel_op(rng) for _ in range(KERNEL_BASES)]
    stress = ex.square_sum([(1, ex.parse_rendered(g, 3)) for g in STRESS_SQUARES])
    ops.append(certify_op(stress, 3, "sos_certify_stress"))
    ops.append(realization_op(THREE_POLES, rng))
    rng.shuffle(ops)
    return ops


# -- slice-scan -----------------------------------------------------------------------

# Scans per round: (d, poles, number of functions), each function with a
# flipped companion. The counts keep the median among the d = 2 scans and,
# for three rounds or more, the tail among the d = 4 scans.
SCAN_SLOTS = ((2, 2, 6), (3, 1, 2), (4, 1, 2))
CROSSCHECK_SHAPES = ((1, 2), (2, 1), (3, 1))
FOUR_PAIRS = (
    ("-1", "z1", 1, "AGREE_SOS_HERGLOTZ"),
    ("-(z1 + z2)", "z1*z2", 2, "AGREE_SOS_HERGLOTZ"),
    ("1", "z1", 1, "AGREE_NONSOS_NONHERGLOTZ"),
    ("z1*z2", "1", 2, "AGREE_NONSOS_NONHERGLOTZ"),
)


def check_scan(report, f):
    minimum, size = f.closed_form_min_im()
    expect(report.samples + report.skipped == size, "samples + skipped is not the grid size")
    tolerance = MIN_IM_TOL * max(1.0, abs(minimum))
    expect(
        abs(report.min_im - minimum) <= tolerance,
        f"min_im {report.min_im!r} differs from the closed form {minimum!r}",
    )
    expect(report.verdict == ("pass" if f.herglotz else "fail"), "scan verdict")


def scan_op(f):
    R = sp.RationalFunction(to_program(f.p, f.d), to_program(f.q, f.d))

    return Op(f"scan-d{f.d}", lambda: sp.slice_scan(R), lambda result: check_scan(result, f))


def crosscheck_op(f):
    P, Q = to_program(f.p, f.d), to_program(f.q, f.d)

    def check(result):
        expected = "AGREE_SOS_HERGLOTZ" if f.herglotz else "AGREE_NONSOS_NONHERGLOTZ"
        expect(result.verdict == expected, f"verdict {result.verdict}, expected {expected}")
        expect(from_program(result.wronskian) == f.w1, "Wronskian differs from its closed form")
        if result.certificate is not None:
            cert = result.certificate
            check_squares([(w, from_program(g)) for w, g in cert.squares], cert.D, f.w1)
        check_scan(result.scan, f)

    return Op("crosscheck", lambda: sp.crosscheck_slice_criterion(P, Q), check)


def family_op(p_text, q_text, nvars, verdict):
    P = sp.parse_polynomial(p_text, nvars)
    Q = sp.parse_polynomial(q_text, nvars)

    def check(result):
        expect(result.verdict == verdict, f"verdict {result.verdict}, expected {verdict}")

    return Op("crosscheck-family", lambda: sp.crosscheck_slice_criterion(P, Q), check)


def scan_ops(rng):
    """Floating-point slice scans on default grids and crosschecks."""
    ops = []
    for d, npoles, count in SCAN_SLOTS:
        for _ in range(count):
            f = herglotz(rng, d, npoles, linear=False)
            ops += [scan_op(f), scan_op(flipped_on_grid(rng, f))]
    for d, npoles in CROSSCHECK_SHAPES:
        f = herglotz(rng, d, npoles)
        ops += [crosscheck_op(f), crosscheck_op(flipped_on_grid(rng, f))]
    ops += [family_op(*pair) for pair in FOUR_PAIRS]
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "ladder": ladder_ops,
    "wronskian-batch": batch_ops,
    "slice-scan": scan_ops,
}


def build(workload, seed):
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
