"""Braid words and band factorizations, treated purely combinatorially.

A braid word on ``n`` strands is a finite sequence of letters ``s_k`` or
``s_k^-1`` with ``1 <= k <= n-1``.  Everything in this module is exact symbol
pushing: free and cyclic reduction, exponent sums, the permutation induced on
strand positions, and the positivity hierarchy (positive, strictly positive,
syntactically quasipositive).  A quasipositive factorization is kept as an
explicit list of bands ``w * s_k * w^-1`` rather than as its expanded word, so
that the band structure (and the Euler characteristic of the surface it spans)
stays available.

None of these operations attempt to solve the word problem: two words are
compared letter by letter, possibly after free or cyclic reduction, never up to
braid relations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InputError

__all__ = [
    "BraidLetter",
    "BraidWord",
    "Band",
    "QuasipositiveFactorization",
    "PositivityReport",
    "free_reduce",
    "cyclic_reduce",
    "exponent_sum",
    "permutation_of",
    "cycle_count",
    "closure_components",
    "classify_positivity",
    "expand_factorization",
    "band_euler_characteristic",
    "invert",
    "concat",
    "word_to_text",
    "word_from_text",
    "word_to_json",
    "word_from_json",
    "qpf_to_json",
    "qpf_from_json",
]

SYNTACTIC_QP_DEFAULT_BOUND = 24


@dataclass(frozen=True)
class BraidLetter:
    """One generator occurrence: ``index`` is k in s_k, ``sign`` is +1 or -1."""

    index: int
    sign: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise InputError(f"letter index must be >= 1, got {self.index}")
        if self.sign not in (1, -1):
            raise InputError(f"letter sign must be +1 or -1, got {self.sign}")

    def inverse(self) -> BraidLetter:
        return BraidLetter(self.index, -self.sign)


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group on ``strands`` strands.

    Letters are stored verbatim; construction only checks that every index fits
    inside the strand count.
    """

    strands: int
    letters: tuple[BraidLetter, ...] = ()

    def __post_init__(self) -> None:
        if self.strands < 1:
            raise InputError(f"strand count must be >= 1, got {self.strands}")
        object.__setattr__(self, "letters", tuple(self.letters))
        for let in self.letters:
            if let.index > self.strands - 1:
                raise InputError(
                    f"letter s{let.index} does not fit in a braid on "
                    f"{self.strands} strands"
                )

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return word_to_text(self)


@dataclass(frozen=True)
class Band:
    """A conjugated generator ``w * s_index * w^-1``: one positive band."""

    conjugator: tuple[BraidLetter, ...]
    index: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "conjugator", tuple(self.conjugator))
        if self.index < 1:
            raise InputError(f"band index must be >= 1, got {self.index}")


@dataclass(frozen=True)
class QuasipositiveFactorization:
    """An ordered product of positive bands in the braid group on ``strands``."""

    strands: int
    bands: tuple[Band, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "bands", tuple(self.bands))
        for band in self.bands:
            if band.index > self.strands - 1:
                raise InputError(
                    f"band s{band.index} does not fit in a braid on "
                    f"{self.strands} strands"
                )
            for let in band.conjugator:
                if let.index > self.strands - 1:
                    raise InputError(
                        f"conjugator letter s{let.index} does not fit in a "
                        f"braid on {self.strands} strands"
                    )


@dataclass(frozen=True)
class PositivityReport:
    """Result of :func:`classify_positivity`.

    ``syntactically_quasipositive`` is ``None`` when the word was longer than
    the configured parse bound, meaning "not decided here".
    """

    positive: bool
    strictly_positive: bool
    syntactically_quasipositive: bool | None


def free_reduce(word: BraidWord) -> BraidWord:
    """Delete adjacent cancelling pairs until none remain.

    Free reduction is confluent, so a single left-to-right stack pass gives the
    unique reduced word.
    """
    stack: list[BraidLetter] = []
    for let in word.letters:
        if stack and stack[-1].index == let.index and stack[-1].sign == -let.sign:
            stack.pop()
        else:
            stack.append(let)
    return BraidWord(word.strands, tuple(stack))


def cyclic_reduce(word: BraidWord) -> BraidWord:
    """Freely reduce, then cancel first-against-last letters cyclically."""
    reduced = list(free_reduce(word).letters)
    while len(reduced) >= 2:
        first, last = reduced[0], reduced[-1]
        if first.index == last.index and first.sign == -last.sign:
            reduced = reduced[1:-1]
        else:
            break
    return BraidWord(word.strands, tuple(reduced))


def exponent_sum(word: BraidWord) -> int:
    return sum(let.sign for let in word.letters)


def permutation_of(word: BraidWord) -> tuple[int, ...]:
    """Image tuple of the permutation the word induces on strand positions.

    Entry ``i`` (1-indexed) is the image of ``i``; each letter s_k acts by the
    transposition (k, k+1), composed left to right along the word.
    """
    images = list(range(1, word.strands + 1))
    for let in word.letters:
        k = let.index
        images[k - 1], images[k] = images[k], images[k - 1]
    return tuple(images)


def cycle_count(perm: Sequence[int]) -> int:
    """Number of cycles of a permutation given as a 1-indexed image tuple."""
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise InputError(f"not a permutation of 1..{n}: {perm!r}")
    seen = [False] * n
    cycles = 0
    for start in range(n):
        if seen[start]:
            continue
        cycles += 1
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i] - 1
    return cycles


def closure_components(word: BraidWord) -> int:
    """Number of link components of the word's closure."""
    return cycle_count(permutation_of(word))


def _band_parses(letters: tuple[BraidLetter, ...]) -> bool:
    # Exhaustive parse of the letter sequence as a product of bands
    # w s_k w^-1, by dynamic programming over suffix start positions.
    n = len(letters)
    ok = [False] * (n + 1)
    ok[n] = True
    for i in range(n - 1, -1, -1):
        half = 0
        while i + 2 * half < n:
            end = i + 2 * half + 1
            if ok[end] and letters[i + half].sign == 1:
                if all(
                    letters[i + j] == letters[i + 2 * half - j].inverse()
                    for j in range(half)
                ):
                    ok[i] = True
                    break
            half += 1
    return ok[0]


def classify_positivity(
    word: BraidWord, parse_bound: int = SYNTACTIC_QP_DEFAULT_BOUND
) -> PositivityReport:
    """Place a word in the positivity hierarchy.

    Positive means every sign is +1; strictly positive additionally requires
    every generator index 1..n-1 to occur.  Syntactic quasipositivity asks
    whether the literal letter sequence splits as a product of bands
    ``w s_k w^-1``; words longer than ``parse_bound`` are reported as ``None``
    rather than searched.
    """
    positive = all(let.sign == 1 for let in word.letters)
    indices = {let.index for let in word.letters}
    strictly = positive and indices == set(range(1, word.strands))
    syntactic: bool | None
    if len(word.letters) > parse_bound:
        syntactic = None
    else:
        syntactic = _band_parses(word.letters)
    return PositivityReport(positive, strictly, syntactic)


def expand_factorization(qpf: QuasipositiveFactorization) -> BraidWord:
    """Concatenate each band as conjugator + generator + reversed inverse."""
    letters: list[BraidLetter] = []
    for band in qpf.bands:
        letters.extend(band.conjugator)
        letters.append(BraidLetter(band.index, 1))
        letters.extend(let.inverse() for let in reversed(band.conjugator))
    return BraidWord(qpf.strands, tuple(letters))


def band_euler_characteristic(qpf: QuasipositiveFactorization) -> int:
    """Euler characteristic of the band surface: strands minus band count."""
    return qpf.strands - len(qpf.bands)


def invert(word: BraidWord) -> BraidWord:
    return BraidWord(
        word.strands, tuple(let.inverse() for let in reversed(word.letters))
    )


def concat(*words: BraidWord) -> BraidWord:
    if not words:
        raise InputError("concat needs at least one word")
    strands = words[0].strands
    for w in words:
        if w.strands != strands:
            raise InputError("cannot concatenate words with different strand counts")
    letters: list[BraidLetter] = []
    for w in words:
        letters.extend(w.letters)
    return BraidWord(strands, tuple(letters))


_LETTER_RE = re.compile(r"^s(\d+)(?:\^(-?1))?$")


def word_to_text(word: BraidWord) -> str:
    """Whitespace-separated letters, ``s2`` for positive and ``s2^-1`` for inverse."""
    parts = []
    for let in word.letters:
        parts.append(f"s{let.index}" if let.sign == 1 else f"s{let.index}^-1")
    return " ".join(parts)


def word_from_text(text: str, strands: int) -> BraidWord:
    letters = []
    for token in text.split():
        m = _LETTER_RE.match(token)
        if not m:
            raise InputError(f"cannot parse braid letter {token!r}")
        index = int(m.group(1))
        sign = int(m.group(2) or "1")
        letters.append(BraidLetter(index, sign))
    return BraidWord(strands, tuple(letters))


def word_to_json(word: BraidWord) -> dict:
    return {
        "n": word.strands,
        "letters": [[let.index, let.sign] for let in word.letters],
    }


def _pairs(entries) -> list[tuple[int, int]]:
    return [(int(index), int(sign)) for index, sign in entries]


def word_from_json(data: dict) -> BraidWord:
    try:
        strands = int(data["n"])
        pairs = _pairs(data["letters"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(
            f"braid word JSON needs 'n' and 'letters' of [index, sign] pairs: {exc}"
        ) from exc
    return BraidWord(strands, letters_from_pairs(pairs))


def qpf_to_json(qpf: QuasipositiveFactorization) -> dict:
    return {
        "n": qpf.strands,
        "factors": [
            {
                "conjugator": [[let.index, let.sign] for let in band.conjugator],
                "k": band.index,
            }
            for band in qpf.bands
        ],
    }


def qpf_from_json(data: dict) -> QuasipositiveFactorization:
    try:
        strands = int(data["n"])
        factors = [
            (_pairs(entry.get("conjugator", [])), int(entry["k"])) for entry in data["factors"]
        ]
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InputError(
            "factorization JSON needs 'n' and 'factors' of objects with 'k' and "
            f"an optional 'conjugator' of [index, sign] pairs: {exc}"
        ) from exc
    bands = (Band(letters_from_pairs(conj), k) for conj, k in factors)
    return QuasipositiveFactorization(strands, tuple(bands))


def letters_from_pairs(pairs: Iterable[tuple[int, int]]) -> tuple[BraidLetter, ...]:
    """Convenience for building letter tuples from (index, sign) pairs."""
    return tuple(BraidLetter(i, s) for i, s in pairs)
