"""Field construction, arithmetic axioms and literals, exhaustively small."""

import itertools
import operator
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import nullkit

from nullkit.errors import (
    DivisionByZero,
    FieldMismatch,
    NoDefaultModulus,
    NotPrime,
    ParseError,
    ReducibleModulus,
)
from nullkit.field import (
    _is_irreducible,
    _is_prime,
    _power,
    common_spec,
    embed,
    enumerate_field,
    fold_exponent,
    is_subfield,
    make_field,
    parse_field_literal,
)
from nullkit.ideals import Ideal

from helpers import RefField, in_subfield_image

SMALL = [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2)]
# Fields above the table limit, with a schoolbook reference for each.
UNTABLED = [("GF(4099)", RefField(4099)),
            ("GF(67^2; m=t^2+1)", RefField(67, (1, 0, 1))),
            ("GF(1009^2; m=t^2+11)", RefField(1009, (11, 0, 1)))]


def test_construction_errors():
    with pytest.raises(NotPrime):
        make_field(4)
    with pytest.raises(NotPrime):
        make_field(6)
    with pytest.raises(NotPrime):
        make_field(1)
    with pytest.raises(NoDefaultModulus):
        make_field(2, 5)
    with pytest.raises(ReducibleModulus):
        make_field(2, 9)
    with pytest.raises(ReducibleModulus):
        # t^2 + 1 = (t + 1)^2 mod 2
        make_field(2, 2, (1, 0, 1))
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError):
        make_field(3, 1, (1, 1))


def test_a_modulus_of_the_wrong_degree_is_refused():
    with pytest.raises(ReducibleModulus,
                       match=r"^modulus must have degree 2, got degree 1$"):
        make_field(2, 2, (1, 1))


def test_specs_are_interned():
    assert make_field(2) is make_field(2)
    assert make_field(2, 2) is make_field(2, 2)
    assert make_field(2, 2) is make_field(2, 2, (1, 1, 1))
    assert make_field(2) is not make_field(3)


def test_field_axioms_exhaustive():
    """Ring axioms plus inverses over every table-backed small field."""
    for p, e in SMALL:
        spec = make_field(p, e)
        elems = enumerate_field(spec)
        assert len(elems) == spec.q == p ** e
        zero, one = spec.zero, spec.one
        for a in elems:
            assert a + zero == a and a * one == a
            assert a - a == zero and a + (-a) == zero
            assert a * zero == zero
            if a != zero:
                assert a * a.inv() == one
                assert a ** (spec.q - 1) == one
        for a in elems:
            for b in elems:
                assert a + b == b + a and a * b == b * a
                for c in elems:
                    assert (a + b) + c == a + (b + c)
                    assert (a * b) * c == a * (b * c)
                    assert a * (b + c) == a * b + a * c


def test_pow_matches_repeated_multiplication():
    spec = make_field(3, 2)
    for a in enumerate_field(spec):
        acc = spec.one
        for k in range(7):
            assert a ** k == acc
            acc = acc * a


def test_inverse_of_zero():
    spec = make_field(5)
    with pytest.raises(DivisionByZero):
        spec.zero.inv()
    # usable in generic except ZeroDivisionError handlers too
    assert issubclass(DivisionByZero, ZeroDivisionError)


def test_canonical_enumeration_order_gf4():
    spec = make_field(2, 2)
    assert [str(a) for a in enumerate_field(spec)] == ["0", "1", "t", "t+1"]
    t = spec.element([0, 1])
    assert str(t * t) == "t+1"


def test_gf9_reduction():
    # default modulus t^2 + 1 over GF(3), so t^2 = 2
    spec = make_field(3, 2)
    t = spec.element([0, 1])
    assert str(t * t) == "2"
    assert str(t + t) == "2*t"


def test_element_decode_roundtrip():
    for p, e in SMALL:
        spec = make_field(p, e)
        for a in enumerate_field(spec):
            assert spec.element(a.idx) == a
            assert spec.element(list(a.rep)) == a
    rng = random.Random(5)
    for literal, ref in UNTABLED:
        spec = parse_field_literal(literal)
        for idx in [0, 1, spec.p % spec.q, spec.q - 1] + [
                rng.randrange(spec.q) for _ in range(50)]:
            a = spec.element(idx)
            assert list(a.rep) == ref.digits(idx)
            assert spec.element(list(a.rep)) == a


def test_coefficient_sequences_fit_the_field():
    """Over GF(p) a coefficient sequence holds one coefficient; over an
    extension a longer one is reduced modulo the modulus."""
    with pytest.raises(ValueError, match=r"GF\(3\) takes one coefficient"):
        make_field(3).element([1, 1])
    assert make_field(3).element([5]).idx == 2
    # t^2 = -1 = 2 in GF(9) = GF(3)[t]/(t^2 + 1)
    assert make_field(3, 2).element([0, 0, 1]).idx == 2


def test_subfield_relations():
    f2, f4, f3 = make_field(2), make_field(2, 2), make_field(3)
    assert is_subfield(f2, f4) and not is_subfield(f4, f2)
    assert is_subfield(f2, f2)
    assert not is_subfield(f3, f4) and not is_subfield(f4, f3)
    assert common_spec(f2, f4) is f4
    with pytest.raises(FieldMismatch):
        common_spec(f3, f4)


def test_embedding_image():
    f2, f4 = make_field(2), make_field(2, 2)
    images = [embed(a, f4) for a in enumerate_field(f2)]
    assert [a.idx for a in images] == [0, 1]
    for a in enumerate_field(f4):
        assert in_subfield_image(a, f2) == (a.idx in (0, 1))
    # embedding respects both operations
    for a in enumerate_field(f2):
        for b in enumerate_field(f2):
            assert embed(a + b, f4) == embed(a, f4) + embed(b, f4)
            assert embed(a * b, f4) == embed(a, f4) * embed(b, f4)


def test_field_literals_roundtrip():
    for text, p, e in [("GF(2)", 2, 1), ("GF(3)", 3, 1), ("GF(4)", 2, 2),
                       ("GF(9)", 3, 2), ("GF(3^2)", 3, 2), ("GF(8)", 2, 3),
                       ("GF(2^2; m=t^2+t+1)", 2, 2)]:
        spec = parse_field_literal(text)
        assert (spec.p, spec.e) == (p, e)
        assert parse_field_literal(spec.literal()) is spec


def test_bad_field_literals():
    with pytest.raises(ParseError):
        parse_field_literal("GF()")
    with pytest.raises(ParseError):
        parse_field_literal("GF(2")
    with pytest.raises(NotPrime):
        parse_field_literal("GF(6)")
    with pytest.raises(ReducibleModulus):
        parse_field_literal("GF(2^2; m=t^2+1)")
    with pytest.raises(ParseError):
        parse_field_literal("GF(5; m=t+1)")


def test_moduli_use_the_polynomial_grammar():
    spec = parse_field_literal("GF(3^2; m=t^2+2*t+2)")
    assert parse_field_literal("GF(3^2; m=t*t + (1+1)*t - 1)") is spec
    assert parse_field_literal("GF(3^2; m = t ^ 2 + 2*t + 2)") is spec
    # digit-t juxtaposition is refused; positions index the whole literal
    for text in ("GF(3^2; m=t^2+2t+2)", "GF(3^2; m=t^2+2 t+2)"):
        with pytest.raises(ParseError) as err:
            parse_field_literal(text)
        assert err.value.position == text.rindex("t")
    # inside parentheses t is the generator, which GF(p) lacks
    with pytest.raises(ParseError) as err:
        parse_field_literal("GF(3^2; m=(t)^2+1)")
    assert "prime field" in str(err.value)


def test_interning_is_thread_safe():
    """Concurrent first requests for one field all get the same spec."""
    specs = []

    def build():
        specs.append(make_field(241))  # a field no other test makes

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert len(specs) == 8
    assert all(s is specs[0] for s in specs)


def test_primality_is_exact():
    limit = 20000
    sieve = [False, False] + [True] * (limit - 2)
    for i in range(2, limit):
        if sieve[i]:
            for j in range(i * i, limit, i):
                sieve[j] = False
    assert [_is_prime(n) for n in range(limit)] == sieve
    # strong pseudoprimes to the first 4, 7 and 9 prime bases
    for n in (3215031751, 341550071728321, 3825123056546413051):
        with pytest.raises(NotPrime):
            make_field(n)


def test_irreducible_moduli_match_gauss_count():
    """Rabin's test accepts (1/d) sum_{k|d} mu(d/k) p^k monic moduli."""
    def mobius(n):
        out, r = 1, 2
        while n > 1:
            if n % r == 0:
                n //= r
                if n % r == 0:
                    return 0
                out = -out
            r += 1
        return out

    for p in (2, 3, 5):
        for d in range(1, 5):
            accepted = sum(
                _is_irreducible(list(tail) + [1], p)
                for tail in itertools.product(range(p), repeat=d))
            expected = sum(mobius(d // k) * p ** k
                           for k in range(1, d + 1) if d % k == 0) // d
            assert accepted == expected, (p, d)


@pytest.mark.parametrize("field, argv, code, message", [
    ("GF(2305843009213693951)", ["gb"], 0, ""),
    ("GF(1000036000099)", ["gb"], 2, "error: 1000036000099 is not prime"),
    # the Miller-Rabin bases stop being exact here
    ("GF(3317044064679887385961981)", ["gb"], 2,
     "error: 3317044064679887385961981 is beyond the primality test"),
    (None, ["search", "--nonradical", "--q", "2305843009213693951",
            "--n", "1", "--maxdeg", "1"],
     2, "error: generator enumeration exceeds the limit"),
    ("GF(2305843009213693951)", ["points", "--affine"], 2,
     "error: A^2(GF(2305843009213693951)) has more than 1000000 points"),
    # moduli of a large characteristic go through Rabin's test
    ("GF(10007^4; m=t^4+3)", ["gb"], 2,
     "error: t^4+3 is reducible mod 10007"),
    ("GF(1000003^2; m=t^2+1)", ["gb"], 0, ""),
    # above the table limit: no O(q^2) tables, also not for the modulus
    ("GF(4093)", ["gb"], 0, ""),
    ("GF(1009^2; m=t^2+11)", ["gb"], 0, ""),
    # the modulus degree is read off the sparse polynomial
    ("GF(2^2; m=t^1000000+t+1)", ["gb"], 2,
     "error: modulus must have degree 2, got degree 1000000"),
])
def test_large_field_sizes_answer_fast(tmp_path, field, argv, code, message):
    if field is not None:
        path = tmp_path / "big.null"
        path.write_text(f"field {field}\nvars X0 X1\nideal:\nX0 + 3*X1\n")
        argv = argv + ["--input", str(path)]
    src = str(Path(nullkit.__file__).parents[1])
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "nullkit.cli", *argv], capture_output=True,
        text=True, timeout=10, env={**os.environ, "PYTHONPATH": src})
    elapsed = time.perf_counter() - start
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith(message)
    assert elapsed < 1.0


@pytest.mark.parametrize("literal, q", [
    ("GF(2)", 2), ("GF(3)", 3), ("GF(4)", 4), ("GF(8)", 8), ("GF(9)", 9),
    ("GF(16)", 16), ("GF(4)", 2), ("GF(9)", 3), ("GF(101)", 101),
    ("GF(1009)", 1009), ("GF(67^2; m=t^2+1)", 67)])
def test_upoly_roots_are_the_zeros(literal, q):
    """upoly_roots lists the elements of GF(q), in F or its prime field,
    where u vanishes: random u, and products of linear factors with
    repeats, roots outside GF(q) and a constant factor, through the gcds
    with X^q - X and the equal-degree split in odd characteristic and in
    characteristic 2."""
    from nullkit import field

    F = parse_field_literal(literal)
    rng = random.Random(literal)
    for _ in range(20 if F.q > 256 else 60):
        if rng.random() < 0.5:
            u = [rng.randrange(F.q) for _ in range(rng.randint(1, 9))]
        else:
            u = [rng.randrange(1, F.q)]
            for _ in range(rng.randint(1, 7)):
                a = rng.randrange(q if rng.random() < 0.8 else F.q)
                u = field._upoly_mulmod(u, [F.neg[a], 1], [0] * 20 + [1], F)
        if not any(u):
            continue
        want = [a for a in range(q) if not field.upoly_eval(u, a, F)]
        assert field.upoly_roots(u, F, q) == want, u


def test_untabled_prime_field_matches_integers():
    """q > 256 runs on the untabled arithmetic path."""
    p = 4099
    spec = make_field(p)
    assert spec.elements is None
    rng = random.Random(7)
    values = [0, 1, 2, p - 1] + [rng.randrange(p) for _ in range(60)]
    for x in values:
        a = spec.element(x)
        assert str(a) == str(x) and (-a).idx == (-x) % p
        if x:
            assert a.inv().idx == pow(x, p - 2, p)
        for y in values[:20]:
            b = spec.element(y)
            assert (a + b).idx == (x + y) % p
            assert (a - b).idx == (x - y) % p
            assert (a * b).idx == (x * y) % p
            if y:
                assert (a / b).idx == x * pow(y, p - 2, p) % p
    assert spec.element(-1).idx == p - 1


def test_untabled_extension_field():
    spec = parse_field_literal("GF(67^2; m=t^2+1)")
    assert spec.q == 4489 and spec.elements is None
    rng = random.Random(11)
    elems = [spec.element(rng.randrange(spec.q)) for _ in range(25)]
    for a in elems:
        assert a ** spec.q == a
        if a:
            assert a * a.inv() == spec.one
        for b in elems[:8]:
            for c in elems[:5]:
                assert a * (b + c) == a * b + a * c
    t = spec.element([0, 1])
    assert str(t * t) == "66" and str(t.inv()) == "66*t"
    # Y * (X^2 + t*Y) - X * (X*Y - 1) = t*Y^2 + X, and 1/t = -t
    I = Ideal.from_strings(spec, ("X", "Y"), ["X^2 + (t)*Y", "X*Y - 1"])
    assert [str(g) for g in I.gb()] == [
        "Y^2 + (66*t)*X", "X*Y + (66)", "X^2 + (t)*Y"]


# Tabled fields with their moduli spelled out, for the schoolbook reference.
TABLED_MODULI = [("GF(2)", (0, 1)), ("GF(3)", (0, 1)),
                 ("GF(4)", (1, 1, 1)), ("GF(8)", (1, 1, 0, 1)),
                 ("GF(9)", (1, 0, 1)), ("GF(16)", (1, 1, 0, 0, 1)),
                 ("GF(3^3; m=t^3+2*t+1)", (1, 2, 0, 1)),
                 ("GF(5^2; m=t^2+2)", (2, 0, 1))]


@pytest.mark.parametrize("literal, m", TABLED_MODULI)
def test_tables_match_schoolbook_reference(literal, m):
    spec = parse_field_literal(literal)
    ref = RefField(spec.p, m)
    assert spec.q == ref.q and len(spec.elements) == ref.q
    for a in range(ref.q):
        assert spec.neg[a] == ref.neg(a)
        assert list(spec.elements[a].rep) == ref.digits(a)
        if a:
            assert ref.mul(a, spec.inv[a]) == 1
        for b in range(ref.q):
            assert spec.add[a][b] == ref.add(a, b)
            assert spec.mul[a][b] == ref.mul(a, b)


def test_gf251_tables_match_reference_sampled():
    spec, ref, rng = make_field(251), RefField(251), random.Random(3)
    for _ in range(2000):
        a, b = rng.randrange(251), rng.randrange(251)
        assert spec.add[a][b] == ref.add(a, b)
        assert spec.mul[a][b] == ref.mul(a, b)
        assert spec.neg[a] == ref.neg(a)
        if a:
            assert spec.inv[a] == ref.inv(a)


@pytest.mark.parametrize("literal, ref", UNTABLED)
def test_untabled_arithmetic_matches_reference(literal, ref):
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    spec = parse_field_literal(literal)
    assert spec.elements is None
    E = spec.element
    assert (spec.zero ** 0).idx == 1

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, ref.q - 1), st.integers(0, ref.q - 1),
           st.one_of(st.integers(0, 8), st.integers(ref.q, 3 * ref.q),
                     st.integers(-3 * ref.q, -1)))
    def check(a, b, k):
        x, y = E(a), E(b)
        assert (x + y).idx == ref.add(a, b)
        assert (x - y).idx == ref.add(a, ref.neg(b))
        assert (-x).idx == ref.neg(a)
        assert (x * y).idx == ref.mul(a, b)
        if k >= 0:
            assert (x ** k).idx == ref.pow(a, k)
        if b:
            assert ref.mul(b, y.inv().idx) == 1
            assert (x / y).idx == ref.mul(a, ref.inv(b))
            assert (y ** k).idx == (ref.pow(b, k) if k >= 0
                                    else ref.pow(ref.inv(b), -k))
        else:
            with pytest.raises(DivisionByZero):
                y.inv()

    check()


@pytest.mark.parametrize("small, big", [("GF(3)", "GF(9)"),
                                        ("GF(67)", "GF(67^2; m=t^2+1)")])
def test_prime_subfield_embedding(small, big):
    small, big = parse_field_literal(small), parse_field_literal(big)
    rng = random.Random(9)
    values = [0, 1, small.p - 1] + [rng.randrange(small.p) for _ in range(20)]
    for x in values:
        a = small.element(x)
        image = embed(a, big)
        assert image.rep == (x,) + (0,) * (big.e - 1)
        assert in_subfield_image(image, small)
        for y in values[:6]:
            b = small.element(y)
            assert embed(a + b, big) == image + embed(b, big)
            assert embed(a * b, big) == image * embed(b, big)
    others = [big.element(i) for i in range(small.p, big.q, 7)][:200]
    assert not any(in_subfield_image(c, small) for c in others)


@pytest.mark.parametrize("k", [1, 2, 3, 8, 13, 64, 255, 256])
def test_power_forms_no_square_after_the_top_bit(k):
    """Square-and-multiply from the low bit takes bit_length - 1 squares
    and popcount - 1 products: no square after the top bit and no
    product with an identity.  An additive product makes a^k = k*a."""
    calls = []

    def mul(x, y):
        calls.append((x, y))
        return x + y

    assert _power(1, k, mul) == k
    assert len(calls) == k.bit_length() - 1 + bin(k).count("1") - 1


@pytest.mark.parametrize("literal", ["GF(2)", "GF(3)", "GF(4)", "GF(5)",
                                     "GF(9)"])
def test_fold_exponent_keeps_every_power(literal):
    """x^k = x^fold_exponent(k, q) at every x of GF(q), the folded
    exponent lies in 0..q-1, and only 0 folds onto 0."""
    spec = parse_field_literal(literal)
    q = spec.q
    for k in range(4 * q):
        folded = fold_exponent(k, q)
        assert 0 <= folded < q and (folded == 0) == (k == 0)
        for a in enumerate_field(spec):
            assert a ** k == a ** folded, (a, k)


def test_element_refuses_another_field_and_wide_encodings():
    """An element of another field is a FieldMismatch; an extension
    encoding of q or more is refused, while a prime field reads an
    integer modulo p."""
    F2, F4 = make_field(2), make_field(2, 2)
    with pytest.raises(FieldMismatch, match=r"^GF\(2\) vs GF\(2\^2\)$"):
        F4.element(F2.one)
    assert F4.element(F4.one) is F4.one
    with pytest.raises(ValueError,
                       match=r"^encoding 4 out of range for GF\(2\^2\)$"):
        F4.element(4)
    assert F2.element(5) is F2.one


def test_a_non_monic_modulus_is_made_monic():
    """2t^2 + 2 over GF(3) is 2(t^2 + 1), so it names the default
    GF(3^2), spec and all."""
    assert parse_field_literal("GF(3^2; m=2*t^2+2)") is make_field(3, 2)
    assert make_field(3, 2, (2, 0, 2)) is make_field(3, 2)


def test_enumerate_field_past_the_table_limit():
    """GF(257) interns no elements, so enumerate_field builds them."""
    spec = make_field(257)
    assert spec.elements is None
    elements = enumerate_field(spec)
    assert [a.idx for a in elements] == list(range(257))
    assert all(a.spec is spec for a in elements)


@pytest.mark.parametrize("op", ["__add__", "__sub__", "__mul__"])
def test_operators_take_elements_of_one_field(op):
    """Every binary operator refuses an element of another field with a
    FieldMismatch, and leaves a non-element to Python (TypeError)."""
    F2, F4 = make_field(2), make_field(2, 2)
    with pytest.raises(FieldMismatch, match=r"^GF\(2\^2\) vs GF\(2\)$"):
        getattr(F4.one, op)(F2.one)
    assert getattr(F4.one, op)(1) is NotImplemented
    with pytest.raises(TypeError):
        getattr(operator, op.strip("_"))(F4.one, 1)
