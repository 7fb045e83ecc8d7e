"""Loading input documents.

A document is a single UTF-8 JSON object describing a pivotal algebra (or
a group / scheme / coalgebra shorthand section), plus named modules and
involutions. Scalars are strings in the scalar grammar; bare JSON integers
are accepted, floating point never is. A file whose first non-blank
character is not "{" is read as the plain-text scheme format instead: a
header line "n r" followed by an n x n relation matrix. The reader yields
sparse data from the JSON cells on: a list of scalars becomes a sparse
element {index: value}, a coalgebra's counit and gamma included, since
they are the unit and pivotal element of its dual; a matrix becomes sparse
rows, and only a covector (the top-level counit, trace_form) a dense
tuple. Each matrix parses each distinct literal string once and records
with it whether it is zero, so no cell is parsed or truth-tested twice;
errors name the first bad cell, as cells are read in order.

Structural problems (unparseable JSON, wrong shapes, bad scalars, duplicate
structure constants) raise DocumentError and map to the CLI's usage exit
code. Mathematical problems (axiom violations) raise ValidationError with
the full list of violations. FSIND_SKIP_VALIDATION=1 skips the axiom
checks; the structural requirements always apply.

Each axiom is checked where its input enters: a group or scheme section by
its constructor, whose checks imply the pivotal axioms; a raw algebra
section, and the dual algebra of a coalgebra section, by validate_pivotal,
the one checker of the pivotal axioms; modules and involutions as read.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

from .constructors import (
    CayleyTable,
    CoalgebraSpec,
    SchemeSpec,
    dualize_coalgebra,
    group_algebra,
    group_involution,
    parse_scheme_text,
    perm_columns,
    scheme_involution,
    scheme_to_grouplike,
    SchemeFormatError,
)
from .linalg import _transpose
from .pivotal import (
    ModuleRep,
    PivotalAlgebra,
    ValidationError,
    validate_algebra_involution,
    validate_module,
    validate_pivotal,
)
from .scalars import FieldMismatch, ParseError, field_tag_from_string, parse_scalar


class DocumentError(Exception):
    """The document cannot be interpreted at all."""


_UNREAD = object()  # a literal not yet in the memo of _vector


_TOP_KEYS = frozenset((
    "field", "algebra", "group", "scheme", "coalgebra", "modules",
    "involutions", "simples", "integral", "trace_form", "comult", "counit",
    "name", "description",
))

_SECTIONS = ("algebra", "group", "scheme", "coalgebra")


@dataclass
class Document:
    name: str
    kind: str                      # which section the file used
    algebra: PivotalAlgebra
    modules: dict                  # name -> ModuleRep, in declaration order
    simples: tuple | None = None   # module names declared to be complete
    coalgebra: CoalgebraSpec | None = None
    scheme: SchemeSpec | None = None
    description: str | None = None


def validation_enabled():
    return os.environ.get("FSIND_SKIP_VALIDATION", "") != "1"


def _scalar(tag, x, where):
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise DocumentError(
            "%s: scalars must be integers or grammar strings, got %r"
            % (where, x))
    if isinstance(x, int):
        return tag.coerce(x)
    try:
        return parse_scalar(x, tag)
    except ParseError as e:
        raise DocumentError("%s: %s (column %d in %r)"
                            % (where, e.args[0], e.pos, x))
    except FieldMismatch as e:
        raise DocumentError("%s: %s" % (where, e.args[0]))


def _vector(tag, xs, n, where, memo=None):
    """The list xs of n scalars as a sparse element {index: value}.

    memo maps each literal string read so far to its scalar, or to None
    when that scalar is zero; a matrix shares one memo over its rows, so
    each distinct literal is parsed and truth-tested once. Only strings are
    keys: True == 1 and hashes alike, and a boolean cell must still fail.
    """
    if not isinstance(xs, list) or len(xs) != n:
        raise DocumentError("%s: expected a list of %d scalars" % (where, n))
    memo = {} if memo is None else memo
    out = {}
    for i, x in enumerate(xs):
        y = memo.get(x, _UNREAD) if isinstance(x, str) else _UNREAD
        if y is _UNREAD:
            y = _scalar(tag, x, "%s[%d]" % (where, i)) or None
            if isinstance(x, str):
                memo[x] = y
        if y is not None:
            out[i] = y
    return out


def _covector(tag, xs, n, where):
    """The list xs of n scalars as a dense tuple: a covector's values."""
    u, z = _vector(tag, xs, n, where), tag.zero()
    return tuple(u.get(i, z) for i in range(n))


def _rows(tag, rows, n, where):
    """The rows of an n x n matrix as sparse rows {column: value}."""
    if not isinstance(rows, list) or len(rows) != n:
        raise DocumentError("%s: expected %d matrix rows" % (where, n))
    memo = {}
    return [_vector(tag, r, n, "%s[%d]" % (where, i), memo)
            for i, r in enumerate(rows)]


def _columns(tag, rows, n, where):
    """The sparse columns of an n x n matrix given by its rows."""
    return _transpose(_rows(tag, rows, n, where), n)


def _index(x, bound, where):
    if isinstance(x, bool) or not isinstance(x, int) or not 0 <= x < bound:
        raise DocumentError("%s: expected an index in 0..%d, got %r"
                            % (where, bound - 1, x))
    return x


def _structure_constants(tag, entries, dim, where, comult=False):
    """Sparse triples; [i, j, k, c] for mult, [k, i, j, c] for comult.

    Duplicate triples are an error rather than being summed, since a
    generator script emitting the same key twice is almost surely a bug.
    """
    if not isinstance(entries, list):
        raise DocumentError("%s: expected a list of [i, j, k, scalar] rows"
                            % where)
    seen = set()
    grouped = {}
    for pos, ent in enumerate(entries):
        here = "%s[%d]" % (where, pos)
        if not isinstance(ent, list) or len(ent) != 4:
            raise DocumentError("%s: expected [i, j, k, scalar]" % here)
        a = _index(ent[0], dim, here)
        b = _index(ent[1], dim, here)
        c = _index(ent[2], dim, here)
        coeff = _scalar(tag, ent[3], here)
        if (a, b, c) in seen:
            raise DocumentError("%s: duplicate structure constant (%d, %d, %d)"
                                % (here, a, b, c))
        seen.add((a, b, c))
        if not coeff:
            continue
        if comult:
            grouped.setdefault(a, []).append((b, c, coeff))
        else:
            grouped.setdefault((a, b), []).append((c, coeff))
    return {key: tuple(sorted(terms, key=lambda t: t[:-1]))
            for key, terms in grouped.items()}


def _labels(section, dim, where, default="b"):
    labels = section.get("labels")
    if labels is None:
        return tuple("%s%d" % (default, i) for i in range(dim))
    if (not isinstance(labels, list) or len(labels) != dim
            or not all(isinstance(s, str) for s in labels)):
        raise DocumentError("%s.labels: expected %d strings" % (where, dim))
    return tuple(labels)


def _perm(xs, n, where):
    if (not isinstance(xs, list) or len(xs) != n
            or sorted(x for x in xs if isinstance(x, int)
                      and not isinstance(x, bool)) != list(range(n))):
        raise DocumentError("%s: expected a permutation of 0..%d"
                            % (where, n - 1))
    return tuple(xs)


def _load_group_section(section, tag, name):
    table = section.get("table")
    if not isinstance(table, list) or not all(isinstance(r, list)
                                              for r in table):
        raise DocumentError("group.table: expected a list of rows")
    n = len(table)
    for i, row in enumerate(table):
        if len(row) != n:
            raise DocumentError("group.table[%d]: expected %d entries"
                                % (i, n))
        for j, x in enumerate(row):
            _index(x, n, "group.table[%d][%d]" % (i, j))
    ct = CayleyTable(tuple(tuple(r) for r in table))
    labels = _labels(section, n, "group", default="g")
    return ct, group_algebra(ct, tag, labels=labels, name=name)


def _load_scheme_section(section, tag, name):
    size = section.get("size")
    rel = section.get("relations")
    if isinstance(size, bool) or not isinstance(size, int) or size < 1:
        raise DocumentError("scheme.size: expected a positive integer")
    if not isinstance(rel, list) or len(rel) != size:
        raise DocumentError("scheme.relations: expected %d rows" % size)
    rank = 0
    for i, row in enumerate(rel):
        if not isinstance(row, list) or len(row) != size:
            raise DocumentError("scheme.relations[%d]: expected %d entries"
                                % (i, size))
        for j, x in enumerate(row):
            if isinstance(x, bool) or not isinstance(x, int) or x < 0:
                raise DocumentError(
                    "scheme.relations[%d][%d]: expected a relation index"
                    % (i, j))
            rank = max(rank, x + 1)
    declared = section.get("rank", rank)
    if isinstance(declared, bool) or not isinstance(declared, int) \
            or declared < rank:
        raise DocumentError("scheme.rank: must be an integer >= %d" % rank)
    spec = SchemeSpec(size=size, rank=declared,
                      relations=tuple(tuple(r) for r in rel))
    return spec, scheme_to_grouplike(spec, tag, name=name)


def _load_coalgebra_section(section, tag, name):
    comult_raw = section.get("comult")
    counit_raw = section.get("counit")
    s_raw = section.get("S")
    gamma_raw = section.get("gamma")
    if counit_raw is None or comult_raw is None or s_raw is None \
            or gamma_raw is None:
        raise DocumentError("coalgebra: needs comult, counit, S and gamma")
    if not isinstance(counit_raw, list) or not counit_raw:
        raise DocumentError("coalgebra.counit: expected a non-empty list")
    dim = len(counit_raw)
    spec = CoalgebraSpec(
        tag=tag,
        dim=dim,
        labels=_labels(section, dim, "coalgebra", default="c"),
        comult=_structure_constants(tag, comult_raw, dim, "coalgebra.comult",
                                    comult=True),
        counit=_vector(tag, counit_raw, dim, "coalgebra.counit"),
        S=_columns(tag, s_raw, dim, "coalgebra.S"),
        gamma=_vector(tag, gamma_raw, dim, "coalgebra.gamma"),
        name=name,
    )
    return spec, dualize_coalgebra(spec)


def _load_algebra_section(section, tag, name):
    labels = section.get("labels")
    dim = section.get("dim", len(labels) if isinstance(labels, list) else None)
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise DocumentError("algebra: needs a positive 'dim' or a 'labels'"
                            " list to fix the dimension")
    for key in ("mult", "unit", "S", "g"):
        if key not in section:
            raise DocumentError("algebra: missing %r" % key)
    return PivotalAlgebra(
        tag=tag,
        dim=dim,
        labels=_labels(section, dim, "algebra"),
        mult=_structure_constants(tag, section["mult"], dim, "algebra.mult"),
        unit=_vector(tag, section["unit"], dim, "algebra.unit"),
        S=_columns(tag, section["S"], dim, "algebra.S"),
        g=_vector(tag, section["g"], dim, "algebra.g"),
        name=name,
    )


def _load_module(A, entry, where):
    if not isinstance(entry, dict):
        raise DocumentError("%s: expected an object" % where)
    name = entry.get("name")
    if not isinstance(name, str) or not name:
        raise DocumentError("%s: needs a non-empty 'name'" % where)
    dim = entry.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise DocumentError("%s: needs a positive 'dim'" % where)
    action = entry.get("action")
    if not isinstance(action, list) or len(action) != A.dim:
        raise DocumentError("%s.action: expected one %dx%d matrix per"
                            " algebra basis element (%d of them)"
                            % (where, dim, dim, A.dim))
    mats = tuple(_rows(A.tag, m, dim, "%s.action[%d]" % (where, i))
                 for i, m in enumerate(action))
    return ModuleRep(name, dim, mats, A.tag)


def _list(doc, key):
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        raise DocumentError("%s: expected a list of objects" % key)
    return entries


def document_from_dict(doc, name=None, validate=None):
    if validate is None:
        validate = validation_enabled()
    if not isinstance(doc, dict):
        raise DocumentError("the top level must be a JSON object")
    unknown = sorted(set(doc) - _TOP_KEYS)
    if unknown:
        raise DocumentError("unknown top-level keys: %s"
                            % ", ".join(unknown))
    present = [s for s in _SECTIONS if s in doc]
    if len(present) != 1:
        raise DocumentError("exactly one of %s must be present, found %s"
                            % ("/".join(_SECTIONS), present or "none"))
    kind = present[0]
    section = doc[kind]
    if not isinstance(section, dict):
        raise DocumentError("%s: expected an object" % kind)

    field = doc.get("field")
    if not isinstance(field, str):
        raise DocumentError("missing or non-string 'field'")
    try:
        tag = field_tag_from_string(field)
    except (FieldMismatch, ValueError) as e:
        raise DocumentError("field: %s" % e.args[0])

    doc_name = doc.get("name") if isinstance(doc.get("name"), str) else None
    if doc_name is None:
        doc_name = name if name else kind

    ct = None
    coalg = None
    scheme = None
    if kind == "group":
        ct, A = _load_group_section(section, tag, doc_name)
    elif kind == "scheme":
        scheme, A = _load_scheme_section(section, tag, doc_name)
    elif kind == "coalgebra":
        coalg, A = _load_coalgebra_section(section, tag, doc_name)
    else:
        A = _load_algebra_section(section, tag, doc_name)

    overrides = {}
    if "comult" in doc:
        if "counit" not in doc:
            raise DocumentError("a top-level 'comult' needs a 'counit'")
        overrides["comult"] = _structure_constants(
            tag, doc["comult"], A.dim, "comult", comult=True)
        overrides["counit"] = _covector(tag, doc["counit"], A.dim, "counit")
    elif "counit" in doc:
        raise DocumentError("a top-level 'counit' needs a 'comult'")
    for key, read in (("integral", _vector), ("trace_form", _covector)):
        if key in doc:  # the integral is an element, phi a covector
            overrides[key] = read(tag, doc[key], A.dim, key)
    if overrides:
        A = replace(A, **overrides)

    violations = []
    if validate and kind in ("algebra", "coalgebra"):
        violations.extend(validate_pivotal(A))

    modules = {}
    for i, entry in enumerate(_list(doc, "modules")):
        V = _load_module(A, entry, "modules[%d]" % i)
        if V.name in modules:
            raise DocumentError("modules[%d]: duplicate module name %r"
                                % (i, V.name))
        modules[V.name] = V
        if validate:
            violations.extend(validate_module(A, V))

    involutions = {}
    for i, entry in enumerate(_list(doc, "involutions")):
        where = "involutions[%d]" % i
        if not isinstance(entry, dict) or not isinstance(entry.get("name"),
                                                         str):
            raise DocumentError("%s: expected an object with a 'name'" % where)
        iname = entry["name"]
        if iname in involutions:
            raise DocumentError("%s: duplicate involution name %r"
                                % (where, iname))
        if ("perm" in entry) == ("matrix" in entry):
            raise DocumentError("%s: needs exactly one of 'perm' or 'matrix'"
                                % where)
        try:
            if "perm" in entry:
                perm = _perm(entry["perm"], A.dim, where + ".perm")
                if not validate:
                    T = perm_columns(tag, perm)
                elif kind == "group":
                    T = group_involution(ct, perm, tag)
                elif kind == "scheme":
                    T = scheme_involution(A, perm)
                else:
                    T = perm_columns(tag, perm)
                    bad = validate_algebra_involution(A, T)
                    if bad:
                        raise ValidationError(bad)
            else:
                T = _columns(tag, entry["matrix"], A.dim, where + ".matrix")
                if validate:
                    bad = validate_algebra_involution(A, T)
                    if bad:
                        raise ValidationError(bad)
        except ValidationError as e:
            violations.extend("involution %r: %s" % (iname, v)
                              for v in e.violations)
            continue
        involutions[iname] = T
    A.involutions.update(involutions)

    simples = None
    if "simples" in doc:
        names = doc["simples"]
        if not isinstance(names, list) \
                or not all(isinstance(s, str) for s in names):
            raise DocumentError("simples: expected a list of module names")
        if len(set(names)) != len(names):
            raise DocumentError("simples: repeated names")
        missing = [s for s in names if s not in modules]
        if missing:
            raise DocumentError("simples: unknown modules %s" % missing)
        simples = tuple(names)

    if violations:
        raise ValidationError(violations)

    return Document(
        name=doc_name,
        kind=kind,
        algebra=A,
        modules=modules,
        simples=simples,
        coalgebra=coalg,
        scheme=scheme,
        description=doc.get("description")
        if isinstance(doc.get("description"), str) else None,
    )


def document_from_text(text, name=None, validate=None):
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise DocumentError("invalid JSON at line %d column %d: %s"
                                % (e.lineno, e.colno, e.msg))
        return document_from_dict(doc, name=name, validate=validate)
    try:
        spec = parse_scheme_text(text)
    except SchemeFormatError as e:
        raise DocumentError("scheme text: %s" % e.args[0])
    return document_from_dict(
        {"field": "rational",
         "scheme": {"size": spec.size, "rank": spec.rank,
                    "relations": [list(r) for r in spec.relations]}},
        name=name, validate=validate)


def load_document(path, validate=None):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise DocumentError("cannot read %s: %s" % (path, e.strerror))
    base = os.path.basename(path)
    stem = base.rsplit(".", 1)[0] if "." in base else base
    return document_from_text(text, name=stem, validate=validate)
