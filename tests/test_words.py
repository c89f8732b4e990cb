import json
from pathlib import Path

import numpy as np
import pytest

from flagdyn import config
from flagdyn.config import RunConfig
from flagdyn.errors import EvaluationError
from flagdyn.linalg import Matrix
from flagdyn.words import (
    GroupPresentation,
    Peripheral,
    concat,
    invert_word,
    normalize_word,
    parse_word,
    word_str,
)


def test_parse_and_print():
    assert parse_word("a b^-1 a^2") == (("a", 1), ("b", -1), ("a", 2))
    assert parse_word("") == ()
    assert word_str(parse_word("a b^-1")) == "a b^-1"
    assert word_str(()) == "id"


def test_parse_rejects_garbage():
    with pytest.raises(EvaluationError):
        parse_word("a^b")


def test_normalize_merges_and_cancels():
    assert normalize_word((("a", 1), ("a", 2))) == (("a", 3),)
    assert normalize_word((("a", 1), ("a", -1))) == ()
    assert concat(parse_word("a b"), parse_word("b^-1 a")) == (("a", 2),)


def test_invert_word():
    w = parse_word("a b^2 c^-1")
    assert invert_word(w) == (("c", 1), ("b", -2), ("a", -1))
    assert concat(w, invert_word(w)) == ()


@pytest.fixture
def free2():
    return GroupPresentation(
        dim=2,
        generators={"a": Matrix([[2, 1], [1, 1]]), "b": Matrix([[1, 1], [1, 2]])},
    )


def test_evaluation_caches_and_matches(free2):
    w = parse_word("a b a^-1")
    m1 = free2.evaluate(w)
    m2 = free2.evaluate(w)
    assert m1 is m2
    direct = free2.generators["a"] @ free2.generators["b"] @ free2.generators["a"].inv()
    assert np.allclose(m1.arr, direct.arr)


def test_word_inverse_evaluates_to_identity(free2):
    w = parse_word("a b^2 a^-1 b")
    assert free2.evaluate(concat(w, invert_word(w))).is_identity()


def test_unknown_generator_rejected(free2):
    with pytest.raises(EvaluationError):
        free2.evaluate(parse_word("z"))


def test_peripheral_declarations_checked():
    with pytest.raises(EvaluationError):
        GroupPresentation(
            dim=2,
            generators={"a": Matrix([[2, 1], [1, 1]])},
            peripherals=[Peripheral("p", ["missing"])],
        )
    # two-generator (rank-2 abelian) peripherals must actually commute
    with pytest.raises(EvaluationError):
        GroupPresentation(
            dim=2,
            generators={"a": Matrix([[2, 1], [1, 1]]), "b": Matrix([[1, 1], [1, 2]])},
            peripherals=[Peripheral("p", ["a", "b"])],
        )


def test_cyclic_enumeration_order_and_exclusion():
    p = Peripheral("p", ["t"], truncation=3)
    assert list(p.enumerate_words()) == [
        (("t", 1),), (("t", -1),),
        (("t", 2),), (("t", -2),),
        (("t", 3),), (("t", -3),),
    ]
    assert list(p.enumerate_words(exclude_below=3)) == [(("t", 3),), (("t", -3),)]


def test_rank2_enumeration_duplicate_free():
    gens = {
        "x": Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
        "y": Matrix([[1, 0, 1], [0, 1, 0], [0, 0, 1]]),
    }
    rho = GroupPresentation(
        dim=3, generators=gens, peripherals=[Peripheral("p", ["x", "y"], truncation=3)]
    )
    words = list(rho.peripheral("p").enumerate_words())
    assert len(words) == len(set(words))
    assert all(w for w in words)


def test_power_zero_is_identity():
    rho = GroupPresentation(dim=2, generators={"t": Matrix([[1, 1], [0, 1]])})
    assert rho.power("t", 0).is_identity()
    assert rho.power("t", -1).exact == ((1, -1), (0, 1))
    with pytest.raises(EvaluationError):
        rho.power("z", 0)


def test_evaluate_keeps_exactness_of_exact_generators():
    rho = GroupPresentation(dim=2, generators={"t": Matrix([[1, 1], [0, 1]]),
                                               "s": Matrix([[0, -1], [1, 0]])})
    assert rho.evaluate(()).exact == ((1, 0), (0, 1))
    assert rho.evaluate(parse_word("t")).exact == ((1, 1), (0, 1))
    # s t^3 s^-1 = [[1, 0], [-3, 1]]
    assert rho.evaluate(parse_word("s t^3 s^-1")).exact == ((1, 0), (-3, 1))
    # one inexact generator makes every evaluation a float one
    mixed = GroupPresentation(dim=2, generators={"t": Matrix([[1, 1], [0, 1]]),
                                                 "h": Matrix([[2.0, 0.0], [0.0, 0.5]])})
    assert mixed.evaluate(parse_word("t")).exact is None
    assert np.allclose(mixed.evaluate(parse_word("t")).arr, [[1, 1], [0, 1]])


@pytest.mark.parametrize("gen", [
    Matrix([[1.5, 0.3], [0.2, 0.7]]),
    Matrix([[2, 1], [1, 1]]),
], ids=["float", "exact"])
def test_power_is_the_left_to_right_product(gen, monkeypatch):
    products = []
    matmul = Matrix.__matmul__

    def counted(a, b):
        products.append(1)
        return matmul(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    rho = GroupPresentation(dim=2, generators={"g": gen})
    del products[:]
    n = 40
    # mixed order: some exponents find a smaller cached power to extend
    exps = [7, -3] + list(range(1, n + 1)) + list(range(-1, -n - 1, -1))
    got = {e: rho.power("g", e) for e in exps}
    assert len(products) == 2 * (n - 1)
    monkeypatch.setattr(Matrix, "__matmul__", matmul)
    for e in exps:
        base = gen if e > 0 else gen.inv()
        want = base
        for _ in range(abs(e) - 1):
            want = want @ base
        assert np.array_equal(got[e].arr, want.arr)
        assert got[e].exact == want.exact


def test_power_of_large_exponent_is_iterative():
    rho = GroupPresentation(dim=2, generators={"t": Matrix([[1, 1], [0, 1]])})
    assert rho.power("t", 5000).exact == ((1, 5000), (0, 1))
    assert rho.power("t", -5000).exact == ((1, -5000), (0, 1))


def test_cache_hit_skips_normalization(free2, monkeypatch):
    import flagdyn.words as words

    w = parse_word("a b a^-1")
    m = free2.evaluate(w)
    calls = []
    normalize = words.normalize_word
    monkeypatch.setattr(words, "normalize_word",
                        lambda word: calls.append(word) or normalize(word))
    assert free2.evaluate(w) is m
    assert calls == []
    # a word that is not normal form misses, is normalized once and hits
    assert free2.evaluate((("a", 1), ("b", 1), ("b", 0), ("a", -1))) is m
    assert len(calls) == 1


def _per_word_presentation(cfg, t):
    """The presentation as built before derived generators were added in
    place: a new base presentation per derived word, then one of every
    generator."""
    gens = {name: m if isinstance(m, Matrix) else config._matrix(name, m, t)
            for name, m in cfg._generators.items()}
    for name, word in cfg._derived:
        gens[name] = GroupPresentation(dim=cfg.dimension, generators=dict(gens)).evaluate(word)
    return GroupPresentation(dim=cfg.dimension, generators=gens, peripherals=cfg.peripherals)


def _jordan_with_gamma():
    raw = json.loads((Path(__file__).resolve().parent.parent / "configs"
                      / "jordan_diag.json").read_text())
    raw["derived"].append({"name": "gamma", "word": "alpha beta"})
    return raw, [0.0, 0.01, 0.05], ["alpha^3", "beta^-2", "gamma", "gamma^-2 alpha",
                                     "A^5 M", "alpha beta^-1 gamma^2"]


def _exact_d3():
    # exact generators whose d = 3 inverse is a float: the derived c is a
    # float matrix, so words in a and b alone evaluate in floats
    raw = {"dimension": 3,
           "generators": [{"name": "a", "matrix": [[1, 1, 0], [0, 1, 0], [0, 0, 1]]},
                          {"name": "b", "matrix": [[1, 0, 0], [1, 1, 0], [0, 0, 1]]}],
           "derived": [{"name": "c", "word": "a^-1 b"}, {"name": "e", "word": "c a^2"}]}
    return raw, [0.0], ["a b", "a^3 b^-2", "c", "e^-1 c", "a e"]


@pytest.mark.parametrize("case", [_jordan_with_gamma, _exact_d3], ids=["jordan-gamma", "exact-d3"])
def test_derived_generators_keep_the_bits_of_per_word_presentations(case):
    raw, grid, texts = case()
    cfg = RunConfig.from_dict(raw)
    for t in grid:
        got, want = cfg.presentation(t), _per_word_presentation(cfg, t)
        assert list(got.generators) == list(want.generators)
        for text in [*got.generators, *texts]:
            m, n = got.evaluate(parse_word(text)), want.evaluate(parse_word(text))
            assert m.exact == n.exact and m.arr.tobytes() == n.arr.tobytes(), (t, text)
            assert m.det_sign == n.det_sign


def test_presentation_builds_each_power_ladder_once(jordan_diag_cfg, monkeypatch):
    # alpha = A^24 and beta = M A^24 M^-1 share the 23 products A^2 .. A^24
    steps = []
    matmul = Matrix.__matmul__

    def counted(a, b):
        steps.append(b)
        return matmul(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    rho = jordan_diag_cfg.presentation(0.01)
    assert sum(b is rho.generators["A"] for b in steps) == 23
