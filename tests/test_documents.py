"""Input documents: structural errors, axiom errors, and the skip switch."""

import json

import pytest
from hypothesis import example, given, strategies as st

from fsind.constructors import NotAScheme, builtin_document
from fsind.documents import (
    Document,
    DocumentError,
    _rows,
    document_from_dict,
    document_from_text,
    load_document,
    validation_enabled,
)
from fsind.pivotal import ValidationError
from fsind.scalars import (
    RATIONAL,
    RATIONAL_FUNCTION,
    cyclotomic_field,
    parse_scalar,
)
from small_algebras import rows_by_dense_reader, to_matrix

K3_TEXT = "3 2\n0 1 1\n1 0 1\n1 1 0\n"


def dual_numbers_doc(S=((1, 0), (0, 1))):
    return {
        "field": "rational",
        "algebra": {
            "labels": ["1", "x"],
            "mult": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1]],
            "unit": [1, 0],
            "S": [list(r) for r in S],
            "g": [1, 0],
        },
        "trace_form": [0, 1],
        "modules": [
            {"name": "triv", "dim": 1, "action": [[[1]], [[0]]]},
        ],
    }


# --- happy paths ---------------------------------------------------------------

def test_json_file_round_trip(tmp_path):
    raw = builtin_document("S3")
    raw.pop("name", None)
    path = tmp_path / "sym3.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    doc = load_document(str(path))
    assert isinstance(doc, Document)
    assert doc.kind == "group"
    assert doc.name == "sym3"
    assert sorted(doc.modules) == ["sign", "std", "triv"]
    assert doc.simples == ("triv", "sign", "std")


def test_matrices_are_read_as_columns():
    """S, a matrix involution and a coalgebra's S are given by rows and
    stored as sparse columns, the image of b_i in column i; the dual of a
    coalgebra takes the transpose. The matrices are not symmetric, so a
    missing or doubled transpose shows; the axioms are not the point here."""
    one, two, three, five = 1, 2, 3, 5
    raw = dual_numbers_doc(S=((1, 2), (0, 1)))
    raw["involutions"] = [{"name": "m", "matrix": [[0, 1], [5, 0]]}]
    algebra = document_from_dict(raw, validate=False).algebra
    assert algebra.S == [{0: one}, {0: two, 1: one}]
    assert algebra.involutions["m"] == [{1: five}, {0: one}]
    raw = {"field": "rational",
           "coalgebra": {"comult": [[0, 0, 0, 1], [1, 0, 1, 1], [1, 1, 0, 1]],
                         "counit": [1, 0], "S": [[1, 0], [3, -1]],
                         "gamma": [1, 0]}}
    doc = document_from_dict(raw, validate=False)
    assert doc.coalgebra.S == [{0: one, 1: three}, {1: -one}]
    assert doc.algebra.S == [{0: one}, {0: three, 1: -one}]
    assert doc.algebra.unit == doc.algebra.g == {0: one}


def test_scheme_text_document():
    doc = document_from_text(K3_TEXT, name="k3")
    assert doc.kind == "scheme"
    assert doc.scheme.rank == 2
    assert doc.algebra.grouplike.eps == tuple(
        doc.algebra.tag.coerce(v) for v in (1, 2))


def test_algebra_section_with_overrides():
    doc = document_from_dict(dual_numbers_doc(), name="dual")
    A = doc.algebra
    assert A.dim == 2 and A.labels == ("1", "x")
    assert A.trace_form == (A.tag.zero(), A.tag.one())
    assert A.comult is None


def test_comult_override_lands_on_the_algebra():
    raw = builtin_document("C2")
    raw["comult"] = [[0, 0, 0, 1], [1, 1, 1, 1]]
    raw["counit"] = [1, 1]
    doc = document_from_dict(raw)
    one = doc.algebra.tag.one()
    assert doc.algebra.comult == {0: ((0, 0, one),), 1: ((1, 1, one),)}
    assert doc.algebra.counit == (one, one)


def test_document_name_precedence(tmp_path):
    raw = builtin_document("C2")
    raw["name"] = "two"
    raw["description"] = "order two"
    doc = document_from_dict(raw, name="ignored")
    assert doc.name == "two"
    assert doc.description == "order two"


# --- structural rejections -------------------------------------------------------

def test_bad_json_reports_position():
    with pytest.raises(DocumentError, match=r"line 1 column"):
        document_from_text("{ nope")


def test_top_level_shape_errors():
    with pytest.raises(DocumentError, match="top level"):
        document_from_dict([1, 2])
    with pytest.raises(DocumentError, match="unknown top-level"):
        document_from_dict({"field": "rational", "group": {"table": [[0]]},
                            "extra": 1})
    with pytest.raises(DocumentError, match="exactly one"):
        document_from_dict({"field": "rational"})
    with pytest.raises(DocumentError, match="exactly one"):
        document_from_dict({"field": "rational",
                            "group": {"table": [[0]]},
                            "scheme": {"size": 1, "relations": [[0]]}})
    with pytest.raises(DocumentError, match="field"):
        document_from_dict({"group": {"table": [[0]]}})
    with pytest.raises(DocumentError, match="field"):
        document_from_dict({"field": "septic", "group": {"table": [[0]]}})


def test_scalar_errors_carry_positions():
    raw = dual_numbers_doc()
    raw["algebra"]["mult"][0] = [0, 0, 0, "1/"]
    with pytest.raises(DocumentError, match="column"):
        document_from_dict(raw)
    raw = dual_numbers_doc()
    raw["algebra"]["unit"] = [1.0, 0]
    with pytest.raises(DocumentError, match="unit"):
        document_from_dict(raw)


def test_each_literal_parses_in_its_own_field():
    """Literals repeat across cells and matrices; each cell still holds its
    literal parsed over the document's field, whatever other documents
    parsed the same string to."""
    z = {}
    for name in ("C3", "C4", "C6", "Q8"):
        raw = builtin_document(name)
        doc = document_from_dict(raw)
        tag = doc.algebra.tag
        for entry in raw["modules"]:
            mats = doc.modules[entry["name"]].action
            for m, rows in zip(mats, entry["action"]):
                assert to_matrix(tag, m).rows == [
                    [parse_scalar(x, tag) for x in row] for row in rows
                ], (name, entry["name"])
        z[name] = parse_scalar("z", tag)
    assert z["C3"] ** 3 == 1 and z["C4"] ** 4 == 1 and z["C6"] ** 6 == 1
    assert len({z["C3"], z["C4"], z["C6"]}) == 3
    assert z["Q8"] == z["C4"]


# zero and nonzero spellings per field; JSON integers among them
ZEROS = ["0", "-0", "0/3", "(1-1)", 0]
LITERALS = {
    RATIONAL: (ZEROS, ["1", "-1", "2/3", "(1+1)", 1, -2]),
    cyclotomic_field(4): (ZEROS + ["z-z", "z^4-1"],
                          ["1", "z", "-z", "z^2", "1+z", 3]),
    RATIONAL_FUNCTION: (ZEROS + ["q-q", "(q+1)-(1+q)"],
                        ["1", "q", "1/q", "q^2-1", "(q+1)/(q-1)", -1]),
}
# cells that no field accepts: bad grammar, division by zero, JSON booleans,
# floats, null and lists; "z" and "q" fail only outside their fields
BAD = ["1/", "1+*", "", "1/0", "x", "z", "q", True, False, 0.5, 1.0,
       None, [1]]


def read(reader, tag, rows, n):
    """reader's rows, or the message of the DocumentError it raises."""
    try:
        return reader(tag, rows, n, "m")
    except DocumentError as e:
        return e.args[0]


@st.composite
def matrix_cells(draw):
    """(tag, n, rows): an n x n matrix over Q, Q(z_4) or Q(q) drawn from a
    few literals, so that they repeat across rows, zeros mostly; on request
    a cell is replaced by a bad one, or a row is cut short or lengthened,
    or a row dropped."""
    tag = draw(st.sampled_from(sorted(LITERALS, key=str)))
    zeros, nonzeros = LITERALS[tag]
    n = draw(st.integers(1, 4))
    pool = draw(st.lists(st.sampled_from(zeros + nonzeros), min_size=1,
                         max_size=4))
    rows = [[draw(st.sampled_from(pool)) for _ in range(n)]
            for _ in range(n)]
    fault = draw(st.sampled_from(("none", "none", "cell", "row length",
                                  "row count")))
    r = draw(st.integers(0, n - 1))
    if fault == "cell":
        rows[r][draw(st.integers(0, n - 1))] = draw(st.sampled_from(BAD))
    elif fault == "row length":
        rows[r] = rows[r][1:] if draw(st.booleans()) else rows[r] + ["0"]
    elif fault == "row count":
        del rows[r]
    return tag, n, rows


@given(matrix_cells())
@example((RATIONAL, 2, [["1", "0"], [True, "1"]]))
@example((RATIONAL, 2, [[1, "0"], ["0", True]]))
@example((RATIONAL, 2, [["0", "-0"], ["0/3", 0]]))
def test_reader_matches_the_dense_reader(case):
    """The sparse reader gives the rows of the dense one, values and keys
    alike, or the same DocumentError naming the same first bad cell."""
    tag, n, rows = case
    got, want = read(_rows, tag, rows, n), read(rows_by_dense_reader, tag,
                                                rows, n)
    assert got == want
    if isinstance(got, list):
        assert [sorted(r) for r in got] == [sorted(r) for r in want]


def test_a_boolean_after_a_one_is_rejected():
    """True == 1 and hashes alike, so a memo keyed on cells would take a
    true after a "1" or a 1 for that scalar; the reader keys it on strings
    only and rejects the boolean."""
    for first in ("1", 1):
        for rows in ([[first, True], ["0", "0"]], [[first, "0"], ["0", True]]):
            with pytest.raises(DocumentError, match="got True"):
                _rows(RATIONAL, rows, 2, "m")


def test_duplicate_structure_constants():
    raw = dual_numbers_doc()
    raw["algebra"]["mult"].append([0, 0, 0, 2])
    with pytest.raises(DocumentError, match="duplicate"):
        document_from_dict(raw)


def test_module_shape_errors():
    raw = dual_numbers_doc()
    raw["modules"][0]["action"] = [[[1]]]
    with pytest.raises(DocumentError, match="action"):
        document_from_dict(raw)
    raw = dual_numbers_doc()
    raw["modules"].append(dict(raw["modules"][0]))
    with pytest.raises(DocumentError, match="duplicate module"):
        document_from_dict(raw)


def test_involution_shape_errors():
    raw = builtin_document("C3-inv")
    raw["involutions"][0]["matrix"] = [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    with pytest.raises(DocumentError, match="exactly one of"):
        document_from_dict(raw)
    raw = builtin_document("C3-inv")
    raw["involutions"][0] = {"name": "inv", "perm": [0, 2, 2]}
    with pytest.raises(DocumentError, match="permutation"):
        document_from_dict(raw)


def test_simples_must_name_modules():
    raw = builtin_document("S3")
    raw["simples"] = ["triv", "ghost"]
    with pytest.raises(DocumentError, match="ghost"):
        document_from_dict(raw)
    raw["simples"] = ["triv", "triv"]
    with pytest.raises(DocumentError, match="repeated"):
        document_from_dict(raw)


def test_counit_requires_comult():
    raw = builtin_document("C2")
    raw["counit"] = [1, 1]
    with pytest.raises(DocumentError, match="comult"):
        document_from_dict(raw)


def test_scheme_rank_key():
    raw = {"field": "rational",
           "scheme": {"size": 3, "rank": 1,
                      "relations": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}}
    with pytest.raises(DocumentError, match="rank"):
        document_from_dict(raw)
    # a declared-but-unused relation is a scheme axiom failure, not a
    # structural one
    raw["scheme"]["rank"] = 3
    with pytest.raises(NotAScheme):
        document_from_dict(raw)


def test_missing_file():
    with pytest.raises(DocumentError, match="cannot read"):
        load_document("/no/such/file.json")


# --- axiom rejections and the skip switch ------------------------------------------

def test_axiom_violations_are_collected():
    raw = dual_numbers_doc(S=((0, 1), (1, 0)))
    with pytest.raises(ValidationError) as exc:
        document_from_dict(raw)
    assert any("anti-map" in v for v in exc.value.violations)
    assert any("S(g)" in v for v in exc.value.violations)


def nonassociative_doc():
    # commutative and unital with S = id and g = 1, so associativity is the
    # only axiom that fails: (x x) y = y but x (x y) = 1
    return {
        "field": "rational",
        "algebra": {
            "labels": ["1", "x", "y"],
            "mult": [[0, 0, 0, 1], [0, 1, 1, 1], [0, 2, 2, 1],
                     [1, 0, 1, 1], [2, 0, 2, 1], [1, 1, 0, 1],
                     [1, 2, 1, 1], [2, 1, 1, 1]],
            "unit": [1, 0, 0],
            "S": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "g": [1, 0, 0],
        },
    }


def test_raw_algebra_associativity_is_checked():
    with pytest.raises(ValidationError) as exc:
        document_from_dict(nonassociative_doc())
    assert exc.value.violations
    assert all(v.startswith("associativity fails")
               for v in exc.value.violations)


def test_generator_closure_ends_on_algebras_that_fail_the_axioms():
    # the closure runs as the algebra is built, before validate_pivotal
    zero_unit = dual_numbers_doc()
    zero_unit["algebra"]["unit"] = [0, 0]
    cases = [
        (nonassociative_doc(), (1, 2),
         ["associativity fails at (1, 1, 2)",
          "associativity fails at (1, 2, 2)",
          "associativity fails at (2, 1, 1)",
          "associativity fails at (2, 2, 1)"]),
        (zero_unit, (0, 1),
         ["unit fails on the left at index 0",
          "unit fails on the right at index 0",
          "unit fails on the left at index 1",
          "unit fails on the right at index 1",
          "S(g) is not the inverse of g",
          "module 'triv': unit does not act as identity"]),
    ]
    for raw, generators, violations in cases:
        assert document_from_dict(raw, validate=False).algebra.generators \
            == generators
        with pytest.raises(ValidationError) as exc:
            document_from_dict(raw)
        assert exc.value.violations == violations


def test_constructed_sections_skip_validate_pivotal(monkeypatch):
    def refuse(A):
        raise AssertionError("validate_pivotal ran on %s" % A.name)

    monkeypatch.setattr("fsind.documents.validate_pivotal", refuse)
    for name in ("S3", "S3-grouplike"):
        document_from_dict(builtin_document(name), name=name)
    document_from_text(K3_TEXT)
    # a raw algebra, and the dual of a coalgebra, go through validate_pivotal
    with pytest.raises(AssertionError):
        document_from_dict(dual_numbers_doc())
    with pytest.raises(AssertionError):
        document_from_dict(builtin_document("coalg-C3"), name="coalg-C3")


def test_invalid_involutions_are_collected():
    raw = builtin_document("C3-inv")
    raw["involutions"][0]["perm"] = [1, 0, 2]
    with pytest.raises(ValidationError) as exc:
        document_from_dict(raw)
    assert any(v.startswith("involution 'inv'") for v in exc.value.violations)


def test_validation_can_be_skipped(monkeypatch):
    raw = dual_numbers_doc(S=((0, 1), (1, 0)))
    doc = document_from_dict(raw, validate=False)
    assert doc.algebra.S[1][0] == doc.algebra.tag.one()  # S(b_1) = b_0

    monkeypatch.setenv("FSIND_SKIP_VALIDATION", "1")
    assert not validation_enabled()
    document_from_dict(dual_numbers_doc(S=((0, 1), (1, 0))))

    monkeypatch.setenv("FSIND_SKIP_VALIDATION", "0")
    assert validation_enabled()
    with pytest.raises(ValidationError):
        document_from_dict(dual_numbers_doc(S=((0, 1), (1, 0))))
