"""Truncated Fourier transforms over NTT-friendly prime fields.

In-place forward/inverse transforms of arbitrary length n (block-structured
and bit-reversed variants), exact polynomial multiplication built on them, and
pervasive operation counting for verifying the advertised cost bounds.
"""

from .bitops import bit, bit_reverse, nonzero_criterion
from .bridge import brtft_forward, brtft_inverse, multiply_full_fft, multiply_tft
from .ctft import (ENGINES, add_contribution, break_in_place, ctft_forward,
                   ctft_inverse, mateer_break, reduce_to_remainders,
                   sergeev_break, unbreak_in_place)
from .plan import Plan, eval_points_bitreversed, eval_points_cyclotomic, plan_new
from .ring import (DEFAULT_MODULUS, CountSession, FieldCtx, OpCount,
                   UnsupportedOrderError, find_root_of_unity)
from .transform import dwt, fft_in_place, idwt, ifft_in_place

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_MODULUS", "ENGINES", "CountSession",
    "FieldCtx", "OpCount", "Plan", "UnsupportedOrderError",
    "add_contribution", "bit", "bit_reverse", "break_in_place",
    "brtft_forward", "brtft_inverse", "ctft_forward", "ctft_inverse",
    "dwt", "eval_points_bitreversed", "eval_points_cyclotomic",
    "fft_in_place", "find_root_of_unity", "idwt", "ifft_in_place",
    "mateer_break", "multiply_full_fft", "multiply_tft",
    "nonzero_criterion", "plan_new",
    "reduce_to_remainders", "sergeev_break", "unbreak_in_place",
]
