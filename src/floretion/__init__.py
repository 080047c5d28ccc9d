"""Word algebra over the digits {1, 2, 4, 7} with quaternionic letter
aliases i, j, k, e: signed digitwise multiplication, a packed bit-lane
kernel, triangular-tiling geometry, digit-permutation symmetries,
centralizer tile sets, and exact recurrence detection on power
coefficients.

Importing the package loads no numpy: the first `Element` product loads
it, and `floretion.packed` and the names served from it here
(`packed_mul_many`, `packed_identity`) load on first access.
"""

from importlib import import_module

from .algebra import (
    Element,
    element_from_json,
    element_to_json,
    exp_truncated,
    format_element,
    sierpinski_support,
)
from .centralizer import (
    CentralizerTiles,
    centralizer_counts,
    centralizer_tiles,
    check_vanishing,
    commutes,
    sigma_sums,
    signed_centralizer_order,
)
from .geometry import (
    Mat2,
    Vec2,
    centroid,
    dihedral_matrix,
    elementary_vector,
    is_upward,
    tile_polygon,
)
from .render import render_tiling
from .sequences import (
    Recurrence,
    coeff_stream,
    fibonacci_elements,
    find_recurrence,
    padovan_elements,
    write_b_file,
)
from .symmetry import (
    ALL_PERMS,
    IDENTITY,
    ROTATE,
    ROTATE2,
    SWAP_12,
    SWAP_14,
    SWAP_24,
    Perm,
    apply_perm_element,
    apply_perm_word,
    axis_reflection,
    axis_words,
    cyclic_orbit_points,
    is_axis_symmetric,
    local_cycle,
    parse_perm,
    twisted_commute_check,
)
from .words import (
    DIGITS,
    MAX_ORDER,
    SignedWord,
    all_words,
    format_signed_word,
    format_word,
    identity_word,
    local_mul,
    noncentral_count,
    pack_word,
    parse_signed_word,
    parse_word,
    signed_word_inverse,
    signed_word_mul,
    unpack_word,
    word_mul,
)

__version__ = "0.1.0"

#: Names served from `floretion.packed`, which imports numpy (PEP 562).
_PACKED = ("packed_identity", "packed_mul_many")


def __getattr__(name):
    if name == "packed" or name in _PACKED:
        packed = import_module(".packed", __name__)
        return packed if name == "packed" else getattr(packed, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), "packed", *_PACKED})
