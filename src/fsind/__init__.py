"""Exact indicators of duality for modules over pivotal algebras.

The package computes, in exact arithmetic, the trace of the transposition
map on spaces of invariant bilinear forms: for group algebras, adjacency
algebras of association schemes, duals of copivotal coalgebras, finite
quotients described by structure constants, and the simple modules of
quantum sl2 over Q(q). Definition-level computations are cross-checked
against the closed character formulas throughout.
"""

from .documents import Document, DocumentError, document_from_dict, load_document
from .constructors import builtin_document, builtin_names
from .pivotal import IndicatorReport, ValidationError, fs_indicator, twist_algebra
from .qsl2 import qsl2_indicator

__version__ = "0.1.0"

# the library entry points; every other name is reached through its module
__all__ = ["Document", "DocumentError", "IndicatorReport", "ValidationError",
           "builtin_document", "builtin_names", "document_from_dict",
           "fs_indicator", "load_document", "qsl2_indicator", "twist_algebra"]
