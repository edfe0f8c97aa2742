"""How a failed check surfaces: Report.require and the error payloads."""

import pytest

from infalg.algebra import AlgebraMorphism, InfoAlgebra, is_homomorphism, make_algebra
from infalg.duality import (QSpace, boolean_diagnostics, dual_point_map, dualize,
                            dualize_morphism, q_space_report, reconstruct)
from infalg.equivalence import Equivalence, StarFamily, star_family
from infalg.errors import (CapExceeded, FormatError, InfAlgError, NonCommutingError,
                           NotDirectedError, PreconditionError, StructureError)
from infalg.generators import gen_lattice_valued
from infalg.order import chain_poset, diamond_m3
from infalg.report import Report
from infalg.set_algebra import SetAlgebra


def test_require_returns_a_holding_report_and_raises_with_a_failing_one():
    report = Report()
    report.add("first", True)
    assert report.require("unused") is report
    report.add("second", False, (0, 1))
    for error in (StructureError, PreconditionError):
        with pytest.raises(error) as exc:
            report.require("broken", error)
        assert str(exc.value) == "broken:\nok    first\nFAIL  second  witness=(0, 1)"
        assert exc.value.report is report and exc.value.witness is None
    with pytest.raises(StructureError) as exc:
        report.require("broken")
    assert type(exc.value) is StructureError


def test_report_witness_of_an_unlisted_name_is_none():
    report = Report()
    report.add("checked", False, (0, 1))
    assert report.witness("checked") == (0, 1)
    assert report.witness("unchecked") is None


def test_every_library_error_carries_report_and_witness():
    for error in (InfAlgError("m"), FormatError("m"), StructureError("m"), CapExceeded("m"),
                  PreconditionError("m")):
        assert (str(error), error.report, error.witness) == ("m", None, None)
    for error, message in (
            (NonCommutingError((0, 1)), "equivalences do not commute, witness pair (0, 1)"),
            (NotDirectedError((0, 1)), "family not downward directed, witness members (0, 1)")):
        assert (str(error), error.report, error.witness) == (message, None, (0, 1))


def test_reconstruct_invalid_q_space_error_carries_its_report():
    # the blocks {0, 2} and {1} saturate the up-set {2} (mask 4) of the
    # 3-chain to {0, 2}, which is not an up-set
    space = QSpace(chain_poset(3), star_family([Equivalence(3, [0, 1, 0])], ["t"]))
    with pytest.raises(PreconditionError) as exc:
        reconstruct(space)
    assert exc.value.report is q_space_report(space)
    assert exc.value.report.failures()[0].witness == ("saturation_image", 4)
    assert str(exc.value) == "invalid Q-space:\n" + exc.value.report.format()


def test_dualize_morphism_non_homomorphism_error_carries_its_report():
    a = make_algebra(chain_poset(2), [(0, 1)])
    m = AlgebraMorphism((1, 1), (0,))
    with pytest.raises(PreconditionError) as exc:
        dualize_morphism(m, a, a)
    expected = is_homomorphism(m, a, a, check_meets=True)
    assert exc.value.report.items == expected.items
    assert exc.value.report.witness("preserves_bounds") == (1, 1)
    assert str(exc.value) == "not a homomorphism:\n" + expected.format()


@pytest.mark.parametrize("run, message, witness", [
    (lambda: gen_lattice_valued([2], diamond_m3()),
     "value lattice is not distributive, witness (1, 2, 3)", (1, 2, 3)),
    (lambda: boolean_diagnostics(InfoAlgebra(diamond_m3(), (tuple(range(5)),), ("id",))),
     "not Boolean: not distributive, witness (1, 2, 3)", (1, 2, 3)),
    (lambda: boolean_diagnostics(make_algebra(chain_poset(3), [(0, 1, 2)])),
     "not Boolean: element 1 has no complement", 1),
    # two labels on one map: the witness is the repeated extractor
    (lambda: dualize(make_algebra(chain_poset(2), [(0, 1), (0, 1)])),
     "extractor labels must denote distinct maps; dedupe_extractors first", (0, 1)),
], ids=["lattice-valued", "boolean-distributive", "boolean-complement", "dualize-duplicate-map"])
def test_preconditions_carry_the_witness_they_name(run, message, witness):
    with pytest.raises(PreconditionError) as exc:
        run()
    assert (str(exc.value), exc.value.witness) == (message, witness)


def test_label_table_names_the_unlisted_pair():
    # the two coordinate partitions of a 2x2 grid commute, but their product,
    # the all-relation, is not listed
    eqs = StarFamily(4, [Equivalence(4, [0, 0, 1, 1]), Equivalence(4, [0, 1, 0, 1])],
                     ["a", "b"])
    with pytest.raises(StructureError) as exc:
        SetAlgebra(4, tuple(range(16)), eqs).label_table
    assert (str(exc.value), exc.value.witness) == (
        "saturations not closed under composition at (0,1)", (0, 1))


def test_dual_point_map_names_the_generator():
    a = make_algebra(chain_poset(3), [(0, 1, 2)])
    with pytest.raises(StructureError) as exc:
        dual_point_map(tuple(range(3)), a, a, (), (0, 1))
    assert (str(exc.value), exc.value.witness) == (
        "preimage ideal generator 0 is not meet-irreducible", 0)
