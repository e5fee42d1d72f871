"""The five frozen records: repr, immutability, equality and construction."""

import pytest

from logseries import AmgmReport, EvalConfig, PositiveInput, QuadratureConfig, SweepReport

# (record, field names in order, field values, repr)
RECORDS = [
    (PositiveInput, ("x",), (4.0,), "PositiveInput(x=4.0)"),
    (
        EvalConfig,
        ("tol", "max_terms", "safety_factor"),
        (1e-10, 40, 3.0),
        "EvalConfig(tol=1e-10, max_terms=40, safety_factor=3.0)",
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
    assert repr(EvalConfig()) == "EvalConfig(tol=1e-14, max_terms=96, safety_factor=2.0)"
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
