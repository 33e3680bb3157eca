"""Suite assembly and report serialization.

A suite is a function of a Config and an OpContext that runs its checks in
order and returns their CheckOutcome records; the records of a run are
sorted by id and serialized either as JSON (fully deterministic: no
timing, stable key order) or as text (human-oriented, includes wall time).
"""

from __future__ import annotations

import json
import time

from .field import RationalFunctionField, SpecializedField
from .checks import CheckOutcome
from .operators import OpContext
from .partitions import content_power_sum, partitions_of
from .presentation import PresentationContext
from .shc import GCONVENTIONS, ShcContext, central_series, omega_preset
from .shuffle import ShuffleContext
from .symfunc import SymmetricFunctions

SUITES = ("positive", "presentation", "shuffle", "fock", "all")
SCHEMA_VERSION = 1


class Config:
    __slots__ = ("N", "kmax", "lmax", "series_order", "specialize", "fmt")

    def __init__(
        self, N=8, kmax=5, lmax=5, series_order=6, specialize=None, fmt="json"
    ):
        self.N, self.kmax, self.lmax, self.series_order = N, kmax, lmax, series_order
        self.specialize, self.fmt = specialize, fmt  # specialize: a Fraction or None

    def validate(self):
        if self.N < 2:
            raise ValueError("truncation must be >= 2")
        if self.kmax < 3 or self.lmax < 3:
            raise ValueError("index bounds must be >= 3 for the shipped suites")
        if self.series_order < 1:
            raise ValueError("series order must be >= 1")
        if self.fmt not in ("json", "text"):
            raise ValueError("format must be json or text")

    def make_field(self):
        if self.specialize is None:
            return RationalFunctionField()
        return SpecializedField(self.specialize)

    def echo(self):
        return {
            "N": self.N,
            "kmax": self.kmax,
            "lmax": self.lmax,
            "series_order": self.series_order,
            "mode": "exact"
            if self.specialize is None
            else "specialized(%s)" % self.specialize,
            # checks always run one at a time; the key stays so that the
            # report bytes, whose sha256s wshbench/expected.json records,
            # do not change
            "jobs": 1,
        }


class Report:
    __slots__ = ("suite", "config", "checks", "wall_time")

    def __init__(self, suite, config, checks=None, wall_time=0.0):
        self.suite, self.config, self.wall_time = suite, config, wall_time
        self.checks = [] if checks is None else checks

    @property
    def status(self):
        return (
            "pass" if all(c.status != "fail" for c in self.checks) else "fail"
        )

    def sorted_checks(self):
        return sorted(self.checks, key=lambda c: c.id)

    def to_json(self):
        doc = {
            "schema": SCHEMA_VERSION,
            "suite": self.suite,
            "config": self.config.echo(),
            "status": self.status,
            "checks": [c.as_dict() for c in self.sorted_checks()],
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def to_text(self):
        lines = ["suite %s: %s" % (self.suite, self.status)]
        cfg = self.config.echo()
        lines.append(
            "config: " + ", ".join("%s=%s" % (k, cfg[k]) for k in sorted(cfg))
        )
        for c in self.sorted_checks():
            line = "  [%s] %s window=%s" % (c.status, c.id, list(c.window))
            if c.detail:
                line += "  (%s)" % c.detail
            lines.append(line)
        lines.append("wall time: %.2fs" % self.wall_time)
        return "\n".join(lines) + "\n"

    def render(self):
        return self.to_json() if self.config.fmt == "json" else self.to_text()


# ----------------------------------------------------------------------
# suites: each runs its checks in order and returns their CheckOutcomes
# ----------------------------------------------------------------------


def _spectrum_check(opctx, l):
    """The degree-zero generator of index l acts diagonally on the
    canonical basis with the content-power-sum eigenvalues
    (OpContext.jack_eigenvalues); a failure names the first partition, by
    degree and then in partitions_of order, whose Jack function is not an
    eigenvector with its eigenvalue."""
    field = opctx.field
    op = opctx.sekiguchi(l)
    for n in range(opctx.N + 1):
        eigs = opctx.jack_eigenvalues(op, n)
        for eig, lam in zip(eigs, partitions_of(n)):
            if eig is None or eig != content_power_sum(lam, l, field):
                return CheckOutcome(
                    "spectrum(%d)" % l,
                    (0, opctx.N),
                    "fail",
                    detail="wrong eigenvalue on %r" % (lam,),
                )
    return CheckOutcome("spectrum(%d)" % l, (0, opctx.N), "pass")


def positive_suite(cfg: Config, opctx: OpContext):
    K, L = cfg.kmax, cfg.lmax
    rel = opctx.check_relation
    out = [rel("def1", l, k) for l in range(1, L + 1) for k in range(l + 1, L + 1)]
    out += [rel("def2", l, k) for l in range(1, L + 1) for k in range(0, K)]
    out += [rel("def3"), rel("def4")]
    out += [rel("rank2", k, l) for k in range(3) for l in range(3)]
    out += [rel("recursion", l) for l in range(2, L + 1)]
    out += [rel("kl_identity", k, l) for k in range(1, L) for l in range(1, L + 1 - k)]
    out += [_spectrum_check(opctx, l) for l in range(1, 5)]
    for r in range(1, 4):
        for d in range(0, 3):
            out += [opctx.leading_term_check(r, d), opctx.graded_dimension_check(r, d)]
    return out


def presentation_suite(cfg: Config, opctx: OpContext):
    ctx = PresentationContext(opctx, L=cfg.lmax, K=cfg.kmax)
    return [
        ctx.normal_order_example_check(),
        ctx.normal_order_soundness_check(),
        *ctx.relation_zero_checks(),
        *ctx.rank2_kernel_match(),
    ]


def shuffle_suite(cfg: Config, opctx: OpContext):
    ctx = ShuffleContext(opctx.field)
    return [
        ctx.kernel_expansion_check(),
        ctx.square_of_unit_degree_check(),
        ctx.quadratic_relation_check(),
        ctx.associativity_check(),
        *ctx.rank2_kernel_compare(4, opctx),
        ctx.exchange_samples_check(opctx),
        *ctx.rank3_kernel_compare(min(6, cfg.N - 2), opctx),
    ]


def fock_suite(cfg: Config, opctx: OpContext):
    ctx = ShcContext(opctx)
    return [
        *ctx.negative_cross_checks(cfg.lmax, cfg.kmax),
        *ctx.split_independence_checks(4),
        *ctx.negative_relation_checks(),
        *ctx.fit_arbitration_check(4),
        ctx.e0_symbolic_check(),
        ctx.preset_check(),
    ]


def run_suite(name: str, cfg: Config) -> Report:
    if name not in SUITES:
        raise ValueError("unknown suite %r" % (name,))
    cfg.validate()
    opctx = OpContext(cfg.make_field(), cfg.N)
    builders = {
        "positive": positive_suite,
        "presentation": presentation_suite,
        "shuffle": shuffle_suite,
        "fock": fock_suite,
    }
    names = SUITES[:-1] if name == "all" else (name,)
    started = time.monotonic()
    checks = []
    for n in names:
        checks += builders[n](cfg, opctx)
    return Report(name, cfg, checks, wall_time=time.monotonic() - started)


# ----------------------------------------------------------------------
# artifact emitters
# ----------------------------------------------------------------------


def emit_jack(n: int, cfg: Config):
    cfg.validate()
    if not 0 <= n <= cfg.N:
        raise ValueError("degree %d outside [0, %d]" % (n, cfg.N))
    field = cfg.make_field()
    C = SymmetricFunctions(field).jack_matrix(n)
    parts = partitions_of(n)
    rows = [
        {
            "partition": list(lam),
            "power_sum_coefficients": {
                "p[%s]" % ",".join(map(str, mu)): str(row[j])
                for mu, row in zip(parts, C)
                if row[j] != field.zero
            },
        }
        for j, lam in enumerate(parts)
    ]
    doc = {"schema": SCHEMA_VERSION, "degree": n, "jack_basis": rows}
    if cfg.fmt == "json":
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    lines = ["Jack basis at degree %d" % n]
    for row in rows:
        terms = ", ".join(
            "%s: %s" % kv for kv in sorted(row["power_sum_coefficients"].items())
        )
        lines.append("  J%r = %s" % (tuple(row["partition"]), terms))
    return "\n".join(lines) + "\n"


def emit_eseries(cfg: Config, convention: str, preset: str = None):
    cfg.validate()
    if convention not in GCONVENTIONS:
        raise ValueError("unknown convention %r" % (convention,))
    if preset not in (None, "omega", "fitted"):
        raise ValueError("unknown preset %r" % (preset,))
    field = cfg.make_field()
    eser = central_series(field, cfg.series_order, convention)
    if preset == "omega":
        eser = type(eser)(eser.ring, omega_preset(eser))
    elif preset == "fitted":
        ring = eser.ring
        values = {ring.c_index(0): field.one}
        for i in range(1, ring.M + 1):
            values[ring.c_index(i)] = field.zero
        eser = type(eser)(ring, [p.substitute(values) for p in eser.coeffs])
    doc = {
        "schema": SCHEMA_VERSION,
        "convention": convention,
        "order": cfg.series_order,
        "preset": preset or "none",
        "coefficients": {
            "E%d" % l: eser.coefficient_dict(l) for l in range(cfg.series_order)
        },
    }
    if cfg.fmt == "json":
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    lines = ["central series (%s convention, preset %s)" % (convention, preset or "none")]
    for l in range(cfg.series_order):
        terms = eser.coefficient_dict(l)
        body = " + ".join("(%s)*%s" % (v, k) for k, v in terms.items()) or "0"
        lines.append("  E%d = %s" % (l, body))
    return "\n".join(lines) + "\n"


def emit_dims(r: int, d: int, cfg: Config):
    cfg.validate()
    if r < 1 or d < 0:
        raise ValueError("rank must be >= 1 and order >= 0")
    if r > cfg.N:
        raise ValueError("rank beyond truncation")
    field = cfg.make_field()
    opctx = OpContext(field, cfg.N)
    rows = []
    for order in range(d + 1):
        got = (
            opctx.filtration_span(r, order).dim
            - opctx.filtration_span(r, order - 1).dim
        )
        want = opctx.free_monomial_count(r, order)
        rows.append(
            {
                "order": order,
                "graded_dimension": got,
                "free_monomial_count": want,
                "match": got == want,
            }
        )
    doc = {"schema": SCHEMA_VERSION, "rank": r, "dimensions": rows}
    if cfg.fmt == "json":
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    lines = ["graded dimensions at rank %d" % r]
    for row in rows:
        lines.append(
            "  order %d: dim %d, free count %d, %s"
            % (
                row["order"],
                row["graded_dimension"],
                row["free_monomial_count"],
                "match" if row["match"] else "MISMATCH",
            )
        )
    return "\n".join(lines) + "\n"
