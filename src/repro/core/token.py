"""Hash tokens for the sparse mode (paper Sec. 4.3, Alg. 7).

A ``(v + 6)``-bit *hash token* compresses a 64-bit hash value while keeping
every bit an ExaLogLog insertion with ``p + t <= v`` needs: the low ``v``
hash bits verbatim plus the number of leading zeros of the remaining
``64 - v`` bits (which fits 6 bits for ``v >= 1``). Tokens can be

* collected (deduplicated) instead of allocating the register array,
* transformed back to representative hash values when switching to the
  dense representation, and
* fed directly into ML estimation: the token-set likelihood Eq. (26) has
  the same shape as the register likelihood Eq. (15) with ``m = 1`` and
  ``t = v``, so the same Newton solver applies.

The practically interesting size is 4 bytes (``v = 26``), big enough for
any practical ELL configuration and sortable as a plain 32-bit integer.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.estimation.newton import MLSolution, solve_ml_equation

#: Default token parameter: (26 + 6)-bit tokens fit a 32-bit integer.
DEFAULT_V = 26

MIN_V = 1
MAX_V = 58  # tokens must fit 64 bits


def _check_v(v: int) -> None:
    if not MIN_V <= v <= MAX_V:
        raise ValueError(f"v must be in [{MIN_V}, {MAX_V}], got {v}")


def token_bits(v: int) -> int:
    """Width of a token in bits (``v + 6``)."""
    _check_v(v)
    return v + 6


def token_bytes(v: int) -> int:
    """Storage bytes per token (``ceil((v+6)/8)``); 4 for ``v = 26``."""
    return (token_bits(v) + 7) // 8


def hash_to_token(hash_value: int, v: int) -> int:
    """Map a 64-bit hash to its ``(v+6)``-bit token (Sec. 4.3).

    ``w = (low v bits of h) * 64 + nlz(h | (2**v - 1))``.
    """
    _check_v(v)
    masked = hash_value | ((1 << v) - 1)
    nlz = 64 - masked.bit_length()
    return ((hash_value & ((1 << v) - 1)) << 6) | nlz


def token_to_hash(token: int, v: int) -> int:
    """Reconstruct a representative 64-bit hash value from a token.

    The reconstruction ``h' = 2**(64 - nlz) - 2**v + (token >> 6)`` (mod
    2**64) preserves the low ``v`` bits and the NLZ of the upper field, so
    inserting ``h'`` into any ExaLogLog with ``p + t <= v`` produces exactly
    the same state transition as the original hash.
    """
    _check_v(v)
    nlz = token & 63
    if nlz > 64 - v:
        raise ValueError(f"token NLZ field {nlz} exceeds 64 - v = {64 - v}")
    high = token >> 6
    if high >> v:
        raise ValueError(f"token value field exceeds {v} bits")
    return ((1 << (64 - nlz)) - (1 << v) + high) & 0xFFFFFFFFFFFFFFFF


def rho_token(token: int, v: int) -> float:
    """The token PMF Eq. (24)."""
    _check_v(v)
    if not 0 <= token < (1 << (v + 6)):
        return 0.0
    nlz = token & 63
    if nlz > 64 - v:
        return 0.0
    return 2.0 ** -min(v + 1 + nlz, 64)


def token_coefficients(tokens: Iterable[int], v: int) -> tuple[float, dict[int, int]]:
    """Algorithm 7: (alpha, beta) of the token-set likelihood Eq. (26).

    ``alpha' = 2**64 - sum over tokens of 2**(64-j)`` is accumulated as an
    exact integer, exactly as the paper prescribes for an unsigned 64-bit
    register (Python integers make the wrap-around bookkeeping explicit).

    This is the scalar oracle. Its batched twin is
    :func:`repro.estimation.batch.token_coefficients`: alpha' depends
    only on the histogram of ``j``, so one ``bincount`` over (row, j)
    pairs gives the coefficients of every token set in a chunk, with
    alpha' taken modulo 2**64 in int64.
    """
    _check_v(v)
    alpha_scaled = 1 << 64
    beta: dict[int, int] = {}
    for token in tokens:
        j = min(v + 1 + (token & 63), 64)
        beta[j] = beta.get(j, 0) + 1
        alpha_scaled -= 1 << (64 - j)
    return alpha_scaled / float(1 << 64), beta


def solve_token_ml(tokens: Iterable[int], v: int) -> MLSolution:
    """Raw ML solution for a set of *distinct* tokens."""
    alpha, beta = token_coefficients(tokens, v)
    return solve_ml_equation(alpha, beta)


def estimate_from_tokens(tokens: Iterable[int], v: int) -> float:
    """Distinct-count estimate from a set of *distinct* hash tokens.

    The token likelihood corresponds to an ELL sketch with ``m = 1``
    (``p = 0``, ``t = v``), so the estimate is the solver's ``nu`` directly.
    """
    return solve_token_ml(tokens, v).nu
