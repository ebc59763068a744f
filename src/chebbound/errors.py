"""Exception types shared across the package.

There is one: :class:`DomainError`, raised for every argument the package
refuses, including those whose result would leave the float range.  The
Bessel series is summed in integers with exact error bounds, so no input
ends in a series that fails to converge.
"""


class DomainError(ValueError):
    """An argument lies outside the domain on which a result is defined.

    This covers results past the float range: a Bessel value, an enclosure
    or a ratio bound above the largest float, and Chebyshev coefficients
    a_n below the smallest normal float (n >= 151).
    """
