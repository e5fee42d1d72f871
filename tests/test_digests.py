"""SHA-256 digests that pin the public views bit for bit, one digest per function.

Each digest is taken over the reprs of one function's results on a fixed set of inputs (an error counts as its
type name), so a failure names the function whose doubles moved.  The inputs come from random bit patterns and
exact scalings by powers of two, with no libm call, so every digest is the same wherever the doubles are IEEE.
The sweeps and ``amgm_check`` call libm ``exp`` and are pinned by the goldens instead.
"""

import hashlib
import math
import random
import struct

import pytest

from logseries.inequalities import concavity_check, tangent_at, tangent_line_gap
from logseries.oracles import QuadratureConfig, double_integral_residual
from logseries.series import EvalConfig, difference_quotient, eval_log, partial_sum, tail_ratio, trace


def _bits(rng):
    """A positive finite double from 63 random bits: every binade and the subnormals alike."""
    while True:
        x = struct.unpack("<d", struct.pack("<Q", rng.getrandbits(63)))[0]
        if 0.0 < x < math.inf:
            return x


def _mantissa(rng):
    """A double in [1, 2) from 52 random bits."""
    return 1.0 + math.ldexp(rng.getrandbits(52), -52)


def _inputs():
    rng = random.Random(34)
    xs = [5e-324, 2.0**-1022, 0.25, 0.5 - 2.0**-54, 0.5, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52, 2.0, 4.0]
    xs.append((2.0 - 2.0**-52) * 2.0**1023)  # DBL_MAX
    for e in range(-1074, 1024, 37):  # powers of two and, where they are doubles, both neighbours
        p = math.ldexp(1.0, e)
        xs += [p, math.ldexp(1.0 - 2.0**-53, e), math.ldexp(1.0 + 2.0**-52, e)]
    xs += [1.0 + sign * math.ldexp(_mantissa(rng), -rng.randrange(1, 54)) for sign in (-1.0, 1.0) for _ in range(100)]
    xs += [math.ldexp(_mantissa(rng), rng.choice((-1, 0))) for _ in range(200)]  # [1/2, 2), where _log steps
    xs += [_bits(rng) for _ in range(400)]
    lams = [0.0, 0.5, 1.0] + [math.ldexp(rng.getrandbits(53), -53) for _ in range(len(xs) - 3)]
    return xs, lams


XS, LAMS = _inputs()
PAIRS = list(zip(XS, XS[1:] + XS[:1]))  # neighbours in the list: far apart, and close near 1 and in [1/2, 2)
NS = (0, 1, 7, 60, 90)
CONFIGS = (None, EvalConfig(tol=5e-324, max_terms=1100), EvalConfig(tol=1e-3, max_terms=5))
QUADRATURE = (QuadratureConfig(panels=2), QuadratureConfig(panels=16))


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__


CALLS = {
    "eval_log": lambda: [(eval_log, x, c) for x in XS for c in CONFIGS],
    "partial_sum": lambda: [(partial_sum, x, n) for x in XS for n in (*NS, 1100)],
    "difference_quotient": lambda: [(difference_quotient, x, n) for x in XS for n in (*NS, 10**6)],
    "tail_ratio": lambda: [(tail_ratio, x, k) for x in XS for k in (1, 7, 60, 90, 1100)],
    "trace": lambda: [(trace, x, 90) for x in XS[::8]] + [(trace, x, 1100) for x in XS[:11]],
    "tangent_line_gap": lambda: [(tangent_line_gap, x) for x in XS],
    "tangent_at": lambda: [(tangent_at, a, x) for a, x in PAIRS],
    "concavity_check": lambda: [(concavity_check, x, y, lam) for (x, y), lam in zip(PAIRS, LAMS)],
    "double_integral_residual": lambda: [(double_integral_residual, x, c) for x in XS for c in QUADRATURE]
    + [(double_integral_residual, x, None) for x in XS[:40]],
}

# A change of any double, or of which calls raise, changes the digest of its function.  Update a digest only
# with a change of results that is meant, and say so where the change is recorded.
DIGESTS = {
    "eval_log": "c8c312179c3347f6b0b6ce19314843747e6b850ff6056f01d2644838f9d93faa",
    "partial_sum": "460d45b1e3b51f84527617df8a824c6a175e2f60488d04aa0994470545c9474d",
    "difference_quotient": "2f2ab29ec629a5ccbb623244db3b958122e57bcb61b6df0e573caafdf5a27512",
    "tail_ratio": "3cf42021f0dad5f15d45e59b482fdaccdfc50a4be80c1f0b119e536e8711f340",
    "trace": "52dcd91135cdea13e3fe23b38291dbd2749aa81483cad582eef35cbf1a5416b8",
    "tangent_line_gap": "6ec1fb1ef3032c0af9fb206d3a63dde1b2a9d8bee276ab2148e1681021494559",
    "tangent_at": "198ef0c062204d0d08cf100e0350c3e4777114124617b565592bdbb1b8b5fece",
    "concavity_check": "7868ff38a4d57615695d7297b07a196b3612a11d2d697da826a051b0f01c4093",
    "double_integral_residual": "2b5cb52648d4a262de3fa58f03d45c8b8bf159d3c3db8c37be001520c4df6333",
}


def _digest(name):
    h = hashlib.sha256()
    for fn, *args in CALLS[name]():
        h.update(_outcome(fn, *args).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("name", list(DIGESTS))
def test_public_views_match_their_digest(name):
    assert _digest(name) == DIGESTS[name]
