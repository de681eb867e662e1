"""Reference bracketing of the crystal operators, one k at a time.

``geocrystal.crystal`` brackets every k in one pass over a word
(``_vertex_of``).  These are the single-k signature and raising operator it
used before; they are kept only as the oracles of ``test_crystal.py``, and
nothing in the package imports them.
"""

from __future__ import annotations

Word = tuple[int, ...]


def _signature(word: Word, k: int) -> tuple[list[int], list[int]]:
    """Positions of surviving minuses and pluses for the k-bracketing."""
    plus_stack: list[int] = []
    minus_list: list[int] = []
    for pos, letter in enumerate(word):
        if letter == k:
            plus_stack.append(pos)
        elif letter == k + 1:
            if plus_stack:
                plus_stack.pop()
            else:
                minus_list.append(pos)
    return minus_list, plus_stack


def e_op(word: Word, k: int) -> Word | None:
    """Raising operator: rightmost surviving k+1 becomes k; None if eps = 0."""
    minus, _ = _signature(word, k)
    if not minus:
        return None
    pos = minus[-1]
    return word[:pos] + (k,) + word[pos + 1 :]
