"""Exception types shared across the package, and the one rule for degrees.

There is one exception: :class:`DomainError`, raised for every argument the
package refuses, including those whose result would leave the float range.
The Bessel series is summed in integers with exact error bounds, so no
input ends in a series that fails to converge.
"""

import numbers
import operator


class DomainError(ValueError):
    """An argument lies outside the domain on which a result is defined.

    This covers results past the float range: a Bessel value, an enclosure
    or a ratio bound above the largest float, and Chebyshev coefficients
    a_n below the smallest normal float (n >= 151).
    """


def _degree(n, least: int, name: str) -> int:
    """n as an int, once it is checked to be an integer >= least.

    Every degree, order and count the package takes is checked here: a
    float such as 2.0, a string or an integer below ``least`` gives a
    DomainError naming ``name``.
    """
    # the exact type test first: isinstance against the numbers ABC takes
    # about 0.9 us, a sixth of a single-point bracket
    if type(n) is int:
        if n >= least:
            return n
    elif isinstance(n, numbers.Integral) and n >= least:
        return operator.index(n)
    bound = "a non-negative integer" if least == 0 else f"an integer >= {least}"
    raise DomainError(f"{name} needs {bound}, not {n!r}")
