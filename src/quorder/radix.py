"""Mixed-radix index packing.

Shared by group direct products and quandle products so that the two
constructions agree element-for-element on the same factor list: the last
factor varies fastest, so a pair (a, b) over sizes (p, q) packs to a*q + b.
"""

from __future__ import annotations

from collections.abc import Sequence


def encode_mixed(digits: Sequence[int], sizes: Sequence[int]) -> int:
    index = 0
    for digit, size in zip(digits, sizes):
        index = index * size + digit
    return index


def decode_mixed(index: int, sizes: Sequence[int]) -> tuple[int, ...]:
    digits = []
    for size in reversed(sizes):
        index, digit = divmod(index, size)
        digits.append(digit)
    return tuple(reversed(digits))
