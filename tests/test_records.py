"""Value semantics of the result records every command builds.

Each record is taken from a real run on the corpus germs and maps. Its
fields read by name, in the order listed here; equal runs give equal
records; a field cannot be assigned; and the repr is ``Name(field=...)``.
"""

import pytest

from crkit import corpus
from crkit.hypersurface import degeneracy, is_minimal, segre_maps, tangent_fields
from crkit.rank import generic_rank
from crkit.reflection import (
    FormalMap,
    build_reflection_report,
    check_maps_into,
    formal_containment,
    partial_convergence,
    segre_reflection_identity,
)
from crkit.series import TruncatedSeries

FIELDS = {
    "RankCertificate": ("rows", "cols", "witness_monomial", "witness_coefficient", "status"),
    "RankResult": ("rank", "certificate"),
    "SegreTriple": ("n", "v1", "v2", "v3"),
    "MinimalityVerdict": ("minimal", "rank", "n", "order", "certificate"),
    "DegeneracyResult": (
        "n", "degeneracy", "rank", "cutoff_requested", "cutoff_effective",
        "stabilized", "witnesses", "certificate", "order",
    ),
    "TangentField": ("n", "j", "coef_dwj", "coef_dwn"),
    "MapVerdict": ("passed", "order_checked", "residual", "offending"),
    "SegreIdentityVerdict": ("passed", "order", "lhs", "rhs", "residual"),
    "ConvergenceEvidence": ("radius", "r0", "polynomial", "rows"),
    "PartialConvergenceResult": (
        "degeneracy", "witnesses_ordered", "g", "gf", "generators", "bound",
    ),
    "ContainmentResult": ("contained", "order", "residuals"),
    "ReflectionReport": ("n", "order", "cutoff", "reflection", "family", "evidence"),
}

ORDER = 6


def run_records() -> dict:
    """One record of every kind, from fresh germs and maps at ORDER."""
    sphere = corpus.sphere(ORDER)
    quadric = corpus.degenerate_quadric(ORDER)
    dilation = FormalMap(corpus.sphere_dilation(ORDER), sphere, sphere)
    shear = FormalMap(corpus.exp_shear(ORDER), quadric, quadric)
    triple = segre_maps(sphere)
    rank = generic_rank(triple.v2)
    report = build_reflection_report(shear)
    partial = partial_convergence(shear)
    return {
        "RankCertificate": rank.certificate,
        "RankResult": rank,
        "SegreTriple": triple,
        "MinimalityVerdict": is_minimal(sphere),
        "DegeneracyResult": degeneracy(quadric),
        "TangentField": tangent_fields(quadric)[1],
        "MapVerdict": check_maps_into(dilation),
        "SegreIdentityVerdict": segre_reflection_identity(dilation),
        "ConvergenceEvidence": report.evidence,
        "PartialConvergenceResult": partial,
        "ContainmentResult": formal_containment(shear.f, list(partial.generators)),
        "ReflectionReport": report,
    }


@pytest.fixture(scope="module")
def records():
    return run_records()


@pytest.mark.parametrize("name", FIELDS)
def test_fields_read_by_name_and_rebuild_an_equal_record(records, name):
    record = records[name]
    assert type(record).__name__ == name
    values = {field: getattr(record, field) for field in FIELDS[name]}
    assert type(record)(**values) == record


def test_equal_runs_give_equal_records(records):
    again = run_records()
    for name in FIELDS:
        assert again[name] == records[name], name
        assert again[name] is not records[name]


@pytest.mark.parametrize("name", FIELDS)
def test_fields_cannot_be_assigned(records, name):
    record = records[name]
    for field in FIELDS[name]:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, before)
        assert getattr(record, field) is before


@pytest.mark.parametrize("name", FIELDS)
def test_repr_names_every_field_in_order(records, name):
    text = repr(records[name])
    assert text.startswith(f"{name}({FIELDS[name][0]}=")
    assert text.endswith(")")
    at = 0
    for field in FIELDS[name][1:]:
        at = text.index(f", {field}=", at) + 1  # ValueError when missing or out of order


def test_record_values_from_the_run(records):
    assert records["RankResult"].rank == 2
    assert records["RankCertificate"].status == "certified"
    assert records["MinimalityVerdict"].minimal
    assert records["MapVerdict"].passed and records["MapVerdict"].offending is None
    assert records["SegreIdentityVerdict"].passed
    assert records["ContainmentResult"].contained
    assert records["PartialConvergenceResult"].bound == 1
    assert records["ReflectionReport"].evidence is records["ConvergenceEvidence"]


def test_degeneracy_property(records):
    quadric = records["DegeneracyResult"]
    assert quadric.degeneracy == 1
    assert not quadric.holomorphically_nondegenerate
    assert degeneracy(corpus.sphere(ORDER)).holomorphically_nondegenerate


def test_tangent_field_apply(records):
    field = records["TangentField"]
    quadric = corpus.degenerate_quadric(ORDER)
    assert field.j == 2
    assert field.apply(quadric.rho).is_zero()
    w2 = TruncatedSeries.variable(6, ORDER, 4)
    assert field.apply(w2) == field.coef_dwj
    with pytest.raises(ValueError, match="expected a series in 6 variables"):
        field.apply(quadric.phi)
