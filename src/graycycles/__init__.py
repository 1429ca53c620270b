"""Gray codes and overlap cycles for weight-restricted m-ary words.

Two generators with matching verifiers and exact counts: a two-change Gray
code for the length-n words over {0..m-1} of a fixed digit sum, as a full
list or a constant-memory stream; and s-overlap cycles (each word's last s
digits are the next word's first s) for fixed-weight and weight-range word
sets, built as Euler tours of transition digraphs, with existence
predicates, a compressed text form, and DOT export.

Each public name is listed in the ``__all__`` of one module (``words``,
``graycode``, ``ocycles`` or ``existence``) and re-exported here.
``existence`` holds the paper's existence theory: the gcd rule, the
weight-range theorem and the block-profile witness behind them; it decides
every verdict by theorem, with no engine.  ``ocycles`` holds the
overlap-cycle engine and takes its word coding and text from the private
``codes``; the engine's library-only names live in ``views``, which
``ocycles`` serves on first access (PEP 562), so that CLI ``ocycle``
compiles neither.  Importing the package loads only ``words``; the other
three load on first access to them or to a name of theirs (PEP 562), and
``records``, the base of the result records, with the first of them.  So
that the package knows those names before it imports the modules, their
``__all__`` lists are kept here, in ``_LAZY``.
"""

from importlib import import_module

from . import words
from .words import *  # noqa: F403

__version__ = "0.1.0"

_LAZY = {
    "graycode": """GrayList GrayReport gray_list gray_stream first_word last_word
        hamming_distance verify_gray""".split(),
    "ocycles": """REASON_DISCONNECTED REASON_UNBALANCED REASON_SINGLETON NotEulerianError
        TransitionDigraph OcycleSolution OcycleReport build_transition_digraph is_balanced
        is_weakly_connected weak_components euler_tour construct_ocycle verify_ocycle
        compress_cycle decompress_cycle export_dot""".split(),
    "existence": """REASON_GCD REASON_WEIGHT_RANGE REASON_EMPTY REASON_DEGENERATE
        WeightDecomposition BlockProfile ExistenceVerdict s_prefix s_suffix
        weight_decomposition block_profile is_cyclic_rotation witness_non_rotation
        exists_fixed_weight_ocycle exists_weight_range_ocycle""".split(),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [*words.__all__, *(name for names in _LAZY.values() for name in names)]


def __getattr__(name: str) -> object:
    if name in _LAZY:
        return import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_HOME})
