"""Group words, presentations, and peripheral subgroup enumerations.

Words are tuples of (generator name, nonzero exponent) syllables.
A GroupPresentation evaluates words to canonical projective matrices,
caching products along prefixes, and enumerates truncated cofinite
subsets of peripheral cosets in a declared, duplicate-free order. A
peripheral is cyclic on one generator or rank-2 abelian on two.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError
from .linalg import Matrix

Word = tuple  # tuple of (name, exponent) syllables; () is the identity

_TOKEN = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(?:\^(-?\d+))?$")


def parse_word(text: str) -> Word:
    """Parse 'a b^-1 a^2' into ((a,1),(b,-1),(a,2)). Empty string is id."""
    text = text.strip()
    if not text:
        return ()
    syllables = []
    for tok in text.replace("*", " ").split():
        m = _TOKEN.match(tok)
        if not m:
            raise EvaluationError(f"bad word token {tok!r}")
        name, exp = m.group(1), int(m.group(2) or 1)
        if exp != 0:
            syllables.append((name, exp))
    return normalize_word(tuple(syllables))


def normalize_word(word: Word) -> Word:
    """Merge adjacent syllables with the same generator, dropping zeros."""
    out = []
    for name, exp in word:
        if out and out[-1][0] == name:
            merged = out[-1][1] + exp
            out.pop()
            if merged != 0:
                out.append((name, merged))
        elif exp != 0:
            out.append((name, exp))
    return tuple(out)


def word_str(word: Word) -> str:
    if not word:
        return "id"
    return " ".join(n if e == 1 else f"{n}^{e}" for n, e in word)


def concat(*words: Word) -> Word:
    out = []
    for w in words:
        out.extend(w)
    return normalize_word(tuple(out))


def invert_word(word: Word) -> Word:
    return tuple((n, -e) for n, e in reversed(word))


@dataclass
class Peripheral:
    """Declared peripheral subgroup with its enumeration parameters: cyclic
    on one generator, rank-2 abelian on two, which must commute."""

    name: str
    generators: list
    truncation: int = 40
    parabolic_point: object = None  # optional coordinates of the fixed point

    def enumerate_words(self, exclude_below: int = 1):
        """Nonidentity elements ordered by power size, positive first.

        Cyclic case: t^n for |n| in [exclude_below, truncation]. Rank-2
        abelian case: shells ordered by |i| + |j|. Duplicate-free by
        construction. A config admits no other generator count.
        """
        if len(self.generators) == 1:
            t = self.generators[0]
            for n in range(max(1, exclude_below), self.truncation + 1):
                yield ((t, n),)
                yield ((t, -n),)
        else:
            t, u = self.generators
            for shell in range(max(1, exclude_below), self.truncation + 1):
                for i in range(-shell, shell + 1):
                    j = shell - abs(i)
                    for jj in {j, -j}:
                        w = normalize_word(((t, i), (u, jj)))
                        if w:
                            yield w


@dataclass
class GroupPresentation:
    """Named generator matrices plus peripheral declarations."""

    dim: int
    generators: dict
    peripherals: list = field(default_factory=list)

    def __post_init__(self):
        for name, m in self.generators.items():
            if m.dim != self.dim:
                raise EvaluationError(f"generator {name} has dimension {m.dim} != {self.dim}")
        # an exact identity keeps products of exact generators exact
        exact = all(m.exact is not None for m in self.generators.values())
        self._cache = {(): Matrix(np.eye(self.dim, dtype=int if exact else float))}
        self._powers = {}
        for name, m in self.generators.items():
            self._powers[(name, 1)], self._powers[(name, -1)] = m, m.inv()
        for name in self.generators:
            self._check_inverse(name)
        peripherals, self.peripherals = self.peripherals, []
        self.add_peripherals(peripherals)

    def _check_inverse(self, name):
        # evaluate would normalize g g^-1 to the identity word: multiply
        if not (self.power(name, 1) @ self.power(name, -1)).is_identity(tol=1e-9):
            raise EvaluationError(f"g g^-1 != id for generator {name}")

    def derive(self, name: str, word: Word):
        """Add the generator ``name``, the value of ``word`` in the generators
        so far, with its inverse, checked as the constructor checks its own."""
        m = self.generators[name] = self.evaluate(word)
        if m.exact is None and self._cache[()].exact is not None:
            # the float identity the constructor would give; words cached
            # under the exact one go with it
            self._cache = {(): Matrix(np.eye(self.dim))}
        self._powers[(name, 1)], self._powers[(name, -1)] = m, m.inv()
        self._check_inverse(name)

    def add_peripherals(self, peripherals):
        """Declare ``peripherals``: their generators must exist, and those of
        a rank-2 one must commute."""
        for p in peripherals:
            for g in p.generators:
                if g not in self.generators:
                    raise EvaluationError(f"peripheral {p.name} uses unknown generator {g}")
        for p in peripherals:
            if len(p.generators) == 2:
                a, b = p.generators
                comm = self.evaluate(((a, 1), (b, 1), (a, -1), (b, -1)))
                if not comm.is_identity(tol=1e-9):
                    raise EvaluationError(f"declared abelian peripheral {p.name} does not commute")
        self.peripherals = [*self.peripherals, *peripherals]

    def power(self, name: str, exp: int) -> Matrix:
        """g^exp for the generator g, built as g^(n-1) @ g^(+-1) from the
        largest cached power of the same sign, so it is the product of
        |exp| left-to-right factors whichever powers came first."""
        if name not in self.generators:
            raise EvaluationError(f"unknown generator {name}")
        if exp == 0:
            return self._cache[()]
        step, n = (1 if exp > 0 else -1), exp
        while (name, n) not in self._powers:
            n -= step
        out, base = self._powers[(name, n)], self._powers[(name, step)]
        while n != exp:
            n += step
            out = out @ base
            self._powers[(name, n)] = out
        return out

    def evaluate(self, word: Word) -> Matrix:
        # cache keys are normalized words, so a hit needs no normalization.
        # A one-syllable word is I @ g^n, canonicalized again, so its last
        # bits can differ from power(g, n); the sampled d = 4 margins in the
        # bundled outputs are those of this product, so keep it.
        if word not in self._cache:
            word = normalize_word(word)
            if word not in self._cache:
                name, exp = word[-1]
                self._cache[word] = self.evaluate(word[:-1]) @ self.power(name, exp)
        return self._cache[word]

    def peripheral(self, name: str) -> Peripheral:
        for p in self.peripherals:
            if p.name == name:
                return p
        raise EvaluationError(f"unknown peripheral {name}")
