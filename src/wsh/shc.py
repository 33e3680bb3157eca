"""The full algebra at desk scale: lowering operators on the Fock space,
the central series packaging the mixed commutators, negative-half relation
checks, and the fit-then-verify test of the central character.

The negative-half relations are the free-algebra relation elements of
``presentation`` realized as an anti-homomorphism, t1[k] going to the
lowering operator D_{-1,k} (OpContext.realize_negative).

The central series lives over a commutative ring F[c_0..c_M][d_1..d_{M+1}]
(with one extra variable w for the omega preset), where d_j stands for the
degree-zero generator with index j.  With xi = kappa - 1 and

    G_0(s) = -log(s),   G_l(s) = (s^-1 - 1)/l   or   (s^-l - 1)/l,

the series is

    1 + xi sum E_l s^(l+1)
        = exp( sum (-1)^(l+1) c_l phi_l(s) + sum d_{l+1} varphi_l(s) )

with phi_l(s) = s^l G_l(1 + xi s) and

    varphi_l(s) = sum_q s^l (G_l(1-qs) - G_l(1+qs)),

where q ranges over {-1, kappa, 1-kappa}, the roots of the cubic
k(u) = (u+1)(u-kappa)(u+kappa-1) whose root set also carries the addable
box contents of the realization; the sign of xi is tied to the same
content convention and is validated (not assumed) by the central-charge
fit.  The two G_l readings ("printed" and "power") are both implemented;
the Fock fit decides between them, nothing is hard-coded.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .checks import CheckOutcome
from .multipoly import MultiPoly
from .operators import GradedOp, WindowError, skipped, zero_or_skip
from .partitions import content_power_sum, partitions_of
from .series import TruncSeries, series_exp

G_PRINTED = "printed"
G_POWER = "power"
GCONVENTIONS = (G_PRINTED, G_POWER)


class CentralRing:
    """F[c_0..c_M][d_1..d_{M+1}][w]: central parameters, degree-zero
    generators, and the preset weight variable."""

    def __init__(self, field, M):
        if M < 1:
            raise ValueError("series order must be >= 1")
        self.field = field
        self.M = M
        self.nvars = 2 * M + 3  # c_0..c_M, d_1..d_{M+1}, w

    def names(self):
        M = self.M
        return (
            ["c%d" % i for i in range(M + 1)]
            + ["d%d" % j for j in range(1, M + 2)]
            + ["w"]
        )

    def c_index(self, i):
        if not 0 <= i <= self.M:
            raise ValueError("central parameter index out of range")
        return i

    def d_index(self, j):
        if not 1 <= j <= self.M + 1:
            raise ValueError("degree-zero generator index out of range")
        return self.M + j

    @property
    def omega_index(self):
        return 2 * self.M + 2

    def const(self, x) -> MultiPoly:
        return MultiPoly.constant(x, self.nvars, self.field)

    @property
    def zero(self):
        return MultiPoly.zero(self.nvars, self.field)

    @property
    def one(self):
        return self.const(self.field.one)

    def c(self, i) -> MultiPoly:
        return MultiPoly.variable(self.c_index(i), self.nvars, self.field)

    def d(self, j) -> MultiPoly:
        return MultiPoly.variable(self.d_index(j), self.nvars, self.field)

    @property
    def w(self) -> MultiPoly:
        return MultiPoly.variable(self.omega_index, self.nvars, self.field)


# ----------------------------------------------------------------------
# the kernel series (coefficients are ring constants)
# ----------------------------------------------------------------------


def _g_series(l, conv, a, order, ring) -> TruncSeries:
    """G_l(1 + a s), which has zero constant term: the coefficient of s^k
    is (-a)^k / k at l = 0 and C(p+k-1, k) (-a)^k / l otherwise, with
    p = l under the power convention and p = 1 under the printed one."""
    f = ring.field
    p = l if conv == G_POWER else 1
    coeffs = [ring.zero]
    x = f.one
    for k in range(1, order + 1):
        x = x * -a
        weight = Fraction(1, k) if l == 0 else Fraction(comb(p + k - 1, k), l)
        coeffs.append(ring.const(x * f.from_fraction(weight)))
    return TruncSeries(coeffs, order, ring.zero)


def phi_series(l, conv, order, ring) -> TruncSeries:
    """phi_l = s^l G_l(1 + xi s), the series multiplying (-1)^(l+1) c_l in
    the exponent."""
    f = ring.field
    return _g_series(l, conv, f.kappa - f.one, order, ring).shift(l)


def varphi_series(l, conv, order, ring) -> TruncSeries:
    """varphi_l = s^l sum_q [G_l(1 - qs) - G_l(1 + qs)], the series
    multiplying d_{l+1} in the exponent; q runs over the roots of the cubic
    kernel of the realization."""
    f = ring.field
    total = TruncSeries.constant(ring.zero, order, ring.zero)
    for q in (-f.one, f.kappa, f.one - f.kappa):
        total = total + _g_series(l, conv, -q, order, ring)
        total = total - _g_series(l, conv, q, order, ring)
    return total.shift(l)


class ESeries:
    """Expanded central series: E_0..E_{M-1} as ring polynomials."""

    def __init__(self, conv, ring, coeffs):
        self.conv = conv
        self.ring = ring
        self.coeffs = coeffs  # E_l, l = 0..M-1

    def coefficient_dict(self, l):
        """E_l keyed by monomial strings, deterministic order."""
        names = self.ring.names()
        out = {}
        poly = self.coeffs[l]
        for e in sorted(poly.terms):
            mono = "*".join(
                names[i] if k == 1 else "%s^%d" % (names[i], k)
                for i, k in enumerate(e)
                if k
            ) or "1"
            out[mono] = str(poly.terms[e])
        return out


def central_series(field, M, conv) -> ESeries:
    """Expand the exponential of the defining exponent to order M and
    extract E_0..E_{M-1}."""
    if conv not in GCONVENTIONS:
        raise ValueError("unknown convention %r" % (conv,))
    xi = field.kappa - field.one
    if xi == field.zero:
        raise ArithmeticError(
            "central series degenerates at kappa = 1 (xi = kappa - 1 = 0); "
            "rerun with a new kappa value"
        )
    ring = CentralRing(field, M)
    exponent = TruncSeries.constant(ring.zero, M, ring.zero)
    for l in range(M):
        sign = field.one if l % 2 else -field.one  # (-1)^(l+1)
        exponent = exponent + phi_series(l, conv, M, ring) * (ring.c(l) * sign)
        exponent = exponent + varphi_series(l, conv, M, ring) * ring.d(l + 1)
    if exponent.coeffs[0] != ring.zero:
        raise ArithmeticError("exponent has a nonzero constant term")
    total = series_exp(exponent, ring.one)
    coeffs = [total.coeffs[l + 1] / xi for l in range(M)]
    return ESeries(conv, ring, coeffs)


def omega_preset(eser: ESeries):
    """Substitute c_0 = 0, c_i = -(kappa w)^i into every E_l; the result
    must be polynomial in w with no central parameters left."""
    ring = eser.ring
    kw = ring.w * ring.field.kappa
    values = {ring.c_index(i): -(kw**i) for i in range(1, ring.M + 1)}
    values[ring.c_index(0)] = ring.field.zero
    return [poly.substitute(values) for poly in eser.coeffs]


# ----------------------------------------------------------------------
# operator side
# ----------------------------------------------------------------------


class ShcContext:
    """Negative-half and mixed-commutator checks on the Fock truncation."""

    def __init__(self, opctx):
        self.opctx = opctx
        self.field = opctx.field
        self._eops = {}
        self._eigs = {}

    def e_operator(self, k, l) -> GradedOp:
        """[lowering k, raising l]: rank 0; the vacuum block is the pure
        product (the reversed order annihilates the vacuum)."""
        if (k, l) not in self._eops:
            down, up = self.opctx.lowering(k), self.opctx.d1(l)
            a = down.compose(up)
            b = up.compose(down).zero_extended(0)
            self._eops[k, l] = a - b
        return self._eops[k, l]

    def _eigenvalues(self, h, n):
        """OpContext.jack_eigenvalues of e_operator(0, h) at degree n,
        cached: the fit reads them once per partition and convention."""
        if (h, n) not in self._eigs:
            op = self.e_operator(0, h)
            self._eigs[h, n] = self.opctx.jack_eigenvalues(op, n)
        return self._eigs[h, n]

    # -- relation checks -----------------------------------------------------

    def negative_cross_checks(self, L, K) -> list:
        """[lowering k, degree-zero l] = lowering k+l-1 on windows: the
        negative image of the cross relation (l, k)."""
        neg = self.opctx.realize_negative.point
        alg = self.opctx.free
        out = []
        for l in range(1, L + 1):
            for k in range(0, K + 1):
                if not 0 <= k + l - 1 <= K:
                    continue
                cid = "neg_cross(%d,%d)" % (k, l)
                out.append(zero_or_skip(cid, lambda: neg(alg.cross_relation(l, k))))
        return out

    def split_independence_checks(self, hmax) -> list:
        """[lowering k, raising l] depends only on k+l; and the common
        operator is diagonal in the Jack basis."""
        out = []
        for h in range(hmax + 1):
            ref = self.e_operator(0, h)
            same = all(
                self.e_operator(k, h - k) == ref for k in range(1, h + 1)
            )
            out.append(
                CheckOutcome(
                    "e_split_independence(%d)" % h,
                    ref.window,
                    "pass" if same else "fail",
                )
            )
            diagonal = all(
                None not in self._eigenvalues(h, n) for n in sorted(ref.blocks)
            )
            out.append(
                CheckOutcome(
                    "e_jack_diagonal(%d)" % h,
                    ref.window,
                    "pass" if diagonal else "fail",
                )
            )
        return out

    def negative_relation_checks(self) -> list:
        """The negative images of the cubic and quadratic relations.  Of
        the two sign readings of the negative quadratic relation, "minus"
        is -1 times the negative image and "plus" the image under the
        homomorphism onto the lowering operators; exactly one vanishes."""
        neg = self.opctx.realize_negative.point
        alg = self.opctx.free
        cubic = neg(alg.cubic_relation())
        quad = alg.quadratic_relation()
        image = neg(quad)
        minus = image.is_zero()
        plus = neg(quad.opposite()).is_zero()
        resolved = "minus" if minus else "plus" if plus else "none"
        return [
            CheckOutcome(
                "neg_cubic", cubic.window, "pass" if cubic.is_zero() else "fail"
            ),
            CheckOutcome(
                "neg_quadratic_variant",
                image.window,
                "pass" if minus != plus else "fail",
                detail="vanishing variant: %s squared-term sign" % resolved,
            ),
            CheckOutcome(
                "neg_adjoint_of_quadratic", image.window, "pass" if minus else "fail"
            ),
        ]

    # -- the central-character fit -------------------------------------------

    def _measured_eigenvalue(self, h, lam):
        """Eigenvalue of the mixed commutator with total index h on the
        Jack function of lam."""
        n = sum(lam)
        eig = self._eigenvalues(h, n)[partitions_of(n).index(lam)]
        if eig is None:
            raise ArithmeticError("operator not diagonal in Jack basis")
        return eig

    def _predicted(self, eser: ESeries, h, lam, fitted):
        """E_h with d_j evaluated at lam and known central values
        substituted; returns (constant, coefficient of c_h)."""
        ring = eser.ring
        f = self.field
        values = {}
        for j in range(1, ring.M + 2):
            values[ring.d_index(j)] = content_power_sum(lam, j, f)
        for i, v in fitted.items():
            values[ring.c_index(i)] = v
        poly = eser.coeffs[h].substitute(values)
        const = f.zero
        linear = f.zero
        ci = ring.c_index(h)
        for e, coeff in poly.terms.items():
            rest = sum(e) - e[ci]
            if rest:
                raise ArithmeticError("unexpected leftover variable in E_%d" % h)
            if e[ci] == 0:
                const = const + coeff
            elif e[ci] == 1:
                linear = linear + coeff
            else:
                raise ArithmeticError("E_%d is not linear in c_%d" % (h, h))
        return const, linear

    def fit_central_charge(self, hmax, conv) -> tuple:
        """Solve for c_0..c_hmax on the training partitions (sizes <= 2),
        verify on the disjoint test partitions (sizes 3 and 4); returns
        (CheckOutcome, fitted dict or None)."""
        cid = "fock_fit(%s,hmax=%d)" % (conv, hmax)
        eser = central_series(self.field, hmax + 1, conv)
        train = [lam for n in range(3) for lam in partitions_of(n)]
        test = [lam for n in (3, 4) for lam in partitions_of(n)]
        window = (0, 4)
        fitted = {}
        for h in range(hmax + 1):
            value = None
            for lam in train:
                const, linear = self._predicted(eser, h, lam, fitted)
                if linear == self.field.zero:
                    return (
                        CheckOutcome(
                            cid,
                            window,
                            "fail",
                            detail="no central character fits under "
                            "convention %s: c_%d undetermined" % (conv, h),
                        ),
                        None,
                    )
                sol = (self._measured_eigenvalue(h, lam) - const) / linear
                if value is None:
                    value = sol
                elif sol != value:
                    return (
                        CheckOutcome(
                            cid,
                            window,
                            "fail",
                            detail="no central character fits under "
                            "convention %s: training inconsistency at "
                            "h=%d" % (conv, h),
                        ),
                        None,
                    )
            fitted[h] = value
        for h in range(hmax + 1):
            for lam in test:
                const, linear = self._predicted(eser, h, lam, fitted)
                predicted = const + linear * fitted[h]
                if predicted != self._measured_eigenvalue(h, lam):
                    return (
                        CheckOutcome(
                            cid,
                            window,
                            "fail",
                            detail="test-set mismatch under convention %s "
                            "at h=%d, partition %r" % (conv, h, lam),
                        ),
                        None,
                    )
        detail = "fitted " + ", ".join(
            "c_%d = %s" % (h, fitted[h])
            for h in sorted(fitted)
        )
        return CheckOutcome(cid, window, "pass", detail=detail), fitted

    def fit_arbitration_check(self, hmax) -> list:
        """Run the fit under both conventions; exactly one must survive.
        Only the surviving convention contributes a pass record -- the
        other failing to fit is the expected arbitration outcome and is
        reported in the uniqueness check's detail.  A truncation below the
        test partitions gives one skipped record."""
        cid = "fock_fit_unique_convention(hmax=%d)" % hmax
        out = []
        passed = []
        details = []
        for conv in GCONVENTIONS:
            try:
                outcome, fitted = self.fit_central_charge(hmax, conv)
            except WindowError as e:
                return [skipped(cid, e)]
            if outcome.status == "pass":
                passed.append(conv)
                out.append(outcome)
            else:
                details.append(outcome.detail)
        out.append(
            CheckOutcome(
                cid,
                (0, 4),
                "pass" if len(passed) == 1 else "fail",
                detail="; ".join(
                    ["surviving convention: %s"
                     % (passed[0] if len(passed) == 1
                        else "none" if not passed else "both")]
                    + details
                ),
            )
        )
        return out

    def e0_symbolic_check(self) -> CheckOutcome:
        """E_0 = c_0 identically in the central ring, both conventions."""
        ok = True
        for conv in GCONVENTIONS:
            eser = central_series(self.field, 2, conv)
            if eser.coeffs[0] != eser.ring.c(0):
                ok = False
        return CheckOutcome(
            "eseries_e0_equals_c0", (0, 2), "pass" if ok else "fail"
        )

    def preset_check(self, hmax=3) -> CheckOutcome:
        """The omega preset substitutes cleanly: no central parameters
        remain and the result is polynomial in the weight variable."""
        ok = True
        for conv in GCONVENTIONS:
            eser = central_series(self.field, hmax + 1, conv)
            ring = eser.ring
            for poly in omega_preset(eser):
                for e in poly.terms:
                    if any(e[ring.c_index(i)] for i in range(ring.M + 1)):
                        ok = False
        return CheckOutcome(
            "eseries_omega_preset(hmax=%d)" % hmax,
            (0, hmax),
            "pass" if ok else "fail",
        )
