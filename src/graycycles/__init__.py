"""Gray codes and overlap cycles for weight-restricted m-ary words.

Two generators with matching verifiers and exact counts:

* a two-change Gray code that orders all length-n words over {0..m-1} with
  a fixed digit sum so that consecutive words differ in exactly two
  positions, available as a full list or a constant-memory stream;
* s-overlap cycles (cyclic orderings where each word's last s digits equal
  the next word's first s digits) for fixed-weight and weight-range word
  sets, built as Euler tours of transition digraphs, with existence
  predicates, a compressed text form, and DOT export.

Every public name is defined once, in the ``__all__`` of its module
(``words``, ``graycode`` or ``ocycles``), and re-exported here from there.
"""

from . import graycode, ocycles, words
from .graycode import *  # noqa: F403
from .ocycles import *  # noqa: F403
from .words import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*words.__all__, *graycode.__all__, *ocycles.__all__]
