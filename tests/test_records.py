"""The five frozen records: repr, immutability, equality and construction; the number rule."""

from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from logseries import (
    AmgmReport,
    EvalConfig,
    PositiveInput,
    QuadratureConfig,
    SweepReport,
    amgm_check,
    concavity_check,
    decrement_step,
    difference_quotient,
    double_integral_residual,
    eval_log,
    partial_sum,
    sweep_amgm,
    sweep_concavity,
    sweep_tangent_at,
    sweep_tangent_line,
    tail_ratio,
    trace,
)

# (record, field names in order, field values, repr)
RECORDS = [
    (PositiveInput, ("x",), (4.0,), "PositiveInput(x=4.0)"),
    (
        EvalConfig,
        ("tol", "max_terms"),
        (1e-10, 40),
        "EvalConfig(tol=1e-10, max_terms=40)",
    ),
    (QuadratureConfig, ("panels",), (64,), "QuadratureConfig(panels=64)"),
    (
        AmgmReport,
        ("arithmetic_mean", "geometric_mean", "holds", "equality"),
        (5.0, 4.000000000000019, True, False),
        "AmgmReport(arithmetic_mean=5.0, geometric_mean=4.000000000000019, holds=True, equality=False)",
    ),
    (
        SweepReport,
        ("name", "checked", "threshold", "min_margin", "worst_input", "violations", "first_violation"),
        ("tangent_line_gap", 2, -1e-12, -2.5e-12, (0.5,), 1, ((0.5,), -2.5e-12)),
        "SweepReport(name='tangent_line_gap', checked=2, threshold=-1e-12, min_margin=-2.5e-12, "
        "worst_input=(0.5,), violations=1, first_violation=((0.5,), -2.5e-12))",
    ),
]
IDS = [record.__name__ for record, *_ in RECORDS]


@pytest.mark.parametrize("record, names, values, text", RECORDS, ids=IDS)
def test_record_repr_and_construction(record, names, values, text):
    positional = record(*values)
    keyword = record(**dict(zip(names, values)))
    assert repr(positional) == repr(keyword) == text
    assert tuple(getattr(positional, name) for name in names) == values
    assert positional == keyword
    assert hash(positional) == hash(keyword)


@pytest.mark.parametrize("record, names, values, text", RECORDS, ids=IDS)
def test_record_is_immutable(record, names, values, text):
    instance = record(*values)
    for name, value in zip(names, values):
        with pytest.raises(AttributeError):
            setattr(instance, name, value)
    with pytest.raises(AttributeError):
        instance.extra = 1
    assert repr(instance) == text


def test_config_defaults_print_as_before():
    assert repr(EvalConfig()) == "EvalConfig(tol=1e-14, max_terms=96)"
    assert repr(QuadratureConfig()) == "QuadratureConfig(panels=1024)"


def test_replace_validates_like_construction():
    assert EvalConfig()._replace(max_terms=10) == EvalConfig(max_terms=10)
    assert type(PositiveInput(2.0)._replace(x=4).x) is float
    for bad in (
        lambda: PositiveInput(2.0)._replace(x=-1.0),
        lambda: EvalConfig()._replace(tol=0.0),
        lambda: QuadratureConfig()._replace(panels=3),
    ):
        with pytest.raises(ValueError):
            bad()


# The number rule: a real is any object but a bool whose type has __float__,
# an integer any object but a bool whose type has __index__; an object with a
# numpy dtype must also be a scalar of a real (integer) kind.  Each row is
# (argument, call taking that argument, a plain value, the config field it
# sets or None); a function refuses with TypeError, a config with a
# ValueError naming the field.
REAL_ARGUMENTS = [
    ("eval_log.x", lambda v: eval_log(v), 2.0, None),
    ("eval_log.x far below 1", lambda v: eval_log(v), 2.0**-40, None),  # below 2**-30; exact as float32 and Decimal too
    ("partial_sum.x", lambda v: partial_sum(v, 5), 2.0, None),
    ("difference_quotient.x", lambda v: difference_quotient(v, 5), 2.0, None),
    ("tail_ratio.x", lambda v: tail_ratio(v, 5), 2.0, None),
    ("trace.x", lambda v: trace(v, 3), 2.0, None),
    ("decrement_step.u", lambda v: decrement_step(v), 0.5, None),
    ("concavity_check.lam", lambda v: concavity_check(1.0, 4.0, v), 0.5, None),
    ("amgm_check.values", lambda v: amgm_check([v, 8.0]), 2.0, None),
    ("EvalConfig.tol", lambda v: EvalConfig(tol=v), 0.5, "tol"),
]
INTEGER_ARGUMENTS = [
    ("partial_sum.n", lambda v: partial_sum(2.0, v), 5, None),
    ("difference_quotient.n", lambda v: difference_quotient(2.0, v), 5, None),
    ("trace.n", lambda v: trace(2.0, v), 3, None),
    ("tail_ratio.k", lambda v: tail_ratio(2.0, v), 5, None),
    ("EvalConfig.max_terms", lambda v: EvalConfig(max_terms=v), 5, "max_terms"),
    ("QuadratureConfig.panels", lambda v: QuadratureConfig(v), 64, "panels"),
    ("sweep_tangent_line.count", lambda v: sweep_tangent_line(count=v), 3, None),
    ("sweep_tangent_at.count", lambda v: sweep_tangent_at(count=v), 3, None),
    ("sweep_concavity.count", lambda v: sweep_concavity(count=v), 3, None),
    ("sweep_amgm.count", lambda v: sweep_amgm(count=v), 3, None),
    ("sweep_tangent_line.seed", lambda v: sweep_tangent_line(count=3, seed=v), 5, None),
    ("sweep_tangent_at.seed", lambda v: sweep_tangent_at(count=3, seed=v), 5, None),
    ("sweep_concavity.seed", lambda v: sweep_concavity(count=3, seed=v), 5, None),
    ("sweep_amgm.seed", lambda v: sweep_amgm(count=3, seed=v), 5, None),
]
# numpy bools, complex numbers, strings and arrays have __float__, but are no reals either.
NOT_NUMBERS = [True, "2", None, 2 + 0j, np.True_, np.complex128(2 + 3j), np.str_("2"), np.array([2.0])]


def _refused(call, value, field):
    if field is None:
        with pytest.raises(TypeError):
            call(value)
    else:
        with pytest.raises(ValueError, match=field):
            call(value)


@pytest.mark.parametrize("name, call, plain, field", REAL_ARGUMENTS, ids=[row[0] for row in REAL_ARGUMENTS])
def test_every_real_argument_follows_the_number_rule(name, call, plain, field):
    expected = repr(call(plain))  # repr, so that a float32 or Fraction stored as such shows
    alikes = [np.float32(plain), np.float64(plain), Fraction(plain), Decimal(plain), PositiveInput(plain)]
    if plain.is_integer():
        alikes += [int(plain), np.int64(plain)]
    for value in alikes:
        assert repr(call(value)) == expected, (name, value)
    for value in NOT_NUMBERS:
        _refused(call, value, field)


@pytest.mark.parametrize("name, call, plain, field", INTEGER_ARGUMENTS, ids=[row[0] for row in INTEGER_ARGUMENTS])
def test_every_integer_argument_follows_the_number_rule(name, call, plain, field):
    expected = repr(call(plain))
    for value in (np.int64(plain), np.int32(plain), np.uint8(plain)):
        assert repr(call(value)) == expected, (name, value)
    # Without __index__, or as an array, a value is no integer, even when it equals one.
    for value in NOT_NUMBERS + [float(plain), np.float64(plain), Fraction(plain), Decimal(plain), np.array([plain])]:
        _refused(call, value, field)


def test_config_fields_are_stored_as_float_and_int():
    assert EvalConfig(1, 5) == EvalConfig(1.0, 5)
    assert type(EvalConfig(1, 5).tol) is float
    assert repr(EvalConfig(1, 5)) == "EvalConfig(tol=1.0, max_terms=5)"
    assert type(EvalConfig(max_terms=np.int64(5)).max_terms) is int
    assert type(EvalConfig(tol=np.float32(0.5)).tol) is float
    assert type(QuadratureConfig(np.int64(64)).panels) is int


# A config argument is its record or None; a look-alike would skip the record's validation.
CONFIG_ARGUMENTS = [
    ("eval_log.config", lambda v: eval_log(2.0, v), EvalConfig(max_terms=5)),
    ("double_integral_residual.config", lambda v: double_integral_residual(2.0, v), QuadratureConfig(4)),
]
NOT_CONFIGS = [
    5,
    64,
    (1e-14, 96),
    SimpleNamespace(panels=3),
    SimpleNamespace(panels=100000),
    SimpleNamespace(tol=-1.0, max_terms=5),
]


@pytest.mark.parametrize("name, call, record", CONFIG_ARGUMENTS, ids=[row[0] for row in CONFIG_ARGUMENTS])
def test_config_argument_is_its_record_or_none(name, call, record):
    assert call(None) == call(type(record)())
    assert call(record) != call(None)
    other = QuadratureConfig() if isinstance(record, EvalConfig) else EvalConfig()
    for value in NOT_CONFIGS + [other]:
        with pytest.raises(TypeError, match="config"):
            call(value)
