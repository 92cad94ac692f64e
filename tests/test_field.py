import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from psghost import field
from psghost.field import FieldSpec, multinomial_int

GF7 = FieldSpec.of(7)
GF4 = FieldSpec.of(2, 2)
GF9_X2P1 = FieldSpec(3, 2, (1, 0, 1))  # modulus x^2 + 1
ALL_Q = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
         (13, 1), (17, 1), (19, 1), (23, 1)]


def spec_of(p, h):
    return FieldSpec.of(p, h)


def test_add_prime_field():
    assert field.add(GF7, 3, 5) == 1


def test_add_characteristic_two():
    assert field.add(GF4, 2, 2) == 0  # x + x


def test_add_gf9_componentwise():
    assert field.add(GF9_X2P1, 4, 5) == 6  # (1 + x) + (2 + x) = 2x


def test_mul_prime_field():
    assert GF7.element(3) * GF7.element(5) == GF7.element(1)


def test_mul_gf4_reduction():
    x = GF4.element(2)
    assert x * x == GF4.element(3)  # x + 1


def test_mul_gf9_x_squared():
    x = GF9_X2P1.element(3)  # x
    assert x * x == GF9_X2P1.element(2)  # x^2 = -1 = 2


def test_inv():
    assert GF7.element(3).inv() == GF7.element(5)
    gf2 = FieldSpec.of(2)
    assert gf2.element(1).inv() == gf2.element(1)
    x = GF4.element(2)
    assert x.inv() == GF4.element(3)  # x + 1


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GF7.element(0).inv()


def test_pow_exponents_beyond_int64():
    assert GF7.element(3) ** (2**70) == GF7.element(pow(3, 2**70, 7))
    assert GF7.element(3) ** -(2**70) == GF7.element(pow(5, 2**70, 7))
    assert GF4.element(0) ** (2**70) == GF4.element(0)
    assert GF4.element(0) ** 0 == GF4.element(1)


def test_spec_mismatch_raises():
    with pytest.raises(ValueError):
        GF7.element(1) * FieldSpec.of(5).element(1)


def test_pow_q_minus_1_examples():
    assert GF7.element(4) ** 6 == GF7.element(1)
    assert GF7.element(0) ** 6 == GF7.element(0)
    gf9 = FieldSpec.of(3, 2)
    assert gf9.element(3) ** 8 == gf9.element(1)  # x^8 = 1


@pytest.mark.parametrize("p,h", ALL_Q)
def test_pow_q_minus_1_exhaustive(p, h):
    spec = spec_of(p, h)
    for a in spec.elements():
        assert a ** (spec.q - 1) == (spec.element(0) if a.is_zero()
                                     else spec.element(1))


def test_multinomial_examples():
    assert multinomial_int(6, 0, 0) % 7 == 1
    assert multinomial_int(2, 1, 1) % 3 == 2
    # 6!/(2! 3! 1!) = 60 = 4 mod 7
    assert multinomial_int(6, 2, 3) == 60


def test_multinomial_domain_error():
    with pytest.raises(ValueError):
        multinomial_int(6, 4, 3)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_multinomial_nonzero_prime_field(p):
    # Underlies extracting the coefficient as a column scaling.
    for i in range(p):
        for j in range(p - i):
            assert multinomial_int(p - 1, i, j) % p != 0


@pytest.mark.parametrize("p,h", ALL_Q)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_field_axioms(p, h, data):
    spec = spec_of(p, h)
    enc = st.integers(min_value=0, max_value=spec.q - 1)
    a, b, c = (data.draw(enc) for _ in range(3))

    def add(x, y):
        return field.add(spec, x, y)

    def mul(x, y):
        return int(field.mul(spec, x, y))

    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, mul(a, p - 1)) == 0  # -a = (p-1) a
    x, y = spec.element(a), spec.element(b)
    assert (x * y).encoding == mul(a, b)
    if a:
        assert x * x.inv() == spec.element(1)


@pytest.mark.parametrize("p,h", ALL_Q)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_frobenius(p, h, data):
    spec = spec_of(p, h)
    enc = st.integers(min_value=0, max_value=spec.q - 1)
    a, b = data.draw(enc), data.draw(enc)
    x, y = spec.element(a), spec.element(b)
    assert (spec.element(field.add(spec, a, b)) ** p).encoding == field.add(
        spec, (x**p).encoding, (y**p).encoding)


def test_encoding_round_trip():
    for p, h in ALL_Q:
        spec = spec_of(p, h)
        for k in range(spec.q):
            assert spec.element(k).encoding == k


def test_parse():
    assert FieldSpec.parse("7") == GF7
    assert FieldSpec.parse("3^2") == FieldSpec.of(3, 2)
    assert str(FieldSpec.of(3, 2)) == "3^2"
    assert FieldSpec.parse("2^5").modulus == (1, 0, 1, 0, 0, 1)


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        FieldSpec(2, 2, (1, 0, 1))  # x^2 + 1 = (x+1)^2 over F_2


@pytest.mark.parametrize("p,h,modulus", [
    (2, 5, (1, 0, 0, 0, 0, 1)),  # x^5 + 1 = (x+1)(x^4+x^3+x^2+x+1)
    (2, 6, (1,) * 7),            # (x^3+x+1)(x^3+x^2+1)
    (3, 4, (1, 0, 2, 0, 1)),     # (x^2+1)^2, no linear factor
])
def test_reducible_modulus_rejected_any_degree(p, h, modulus):
    with pytest.raises(ValueError):
        FieldSpec.of(p, h, modulus=modulus)


def _mobius(n):
    result, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    return -result if n > 1 else result


@pytest.mark.parametrize("p,h", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
                                 (2, 8), (3, 2), (3, 3), (3, 4), (5, 2),
                                 (5, 3), (7, 2)])
def test_irreducible_count_matches_gauss_formula(p, h):
    accepted = 0
    for low in itertools.product(range(p), repeat=h):
        try:
            FieldSpec.of(p, h, modulus=low + (1,))
            accepted += 1
        except ValueError:
            pass
    expected = sum(_mobius(d) * p**(h // d)
                   for d in range(1, h + 1) if h % d == 0) // h
    assert accepted == expected


def test_custom_degree5_modulus_is_a_field():
    spec = FieldSpec.of(2, 5, modulus=(1, 0, 1, 0, 0, 1))  # x^5 + x^2 + 1
    _check_against_schoolbook(spec)
    x1 = spec.element(3)  # x + 1
    assert x1 * x1.inv() == spec.element(1)
    a = np.arange(spec.q)
    for b, c in itertools.product(range(spec.q), repeat=2):
        assert np.array_equal(field.mul(spec, field.mul(spec, a, b), c),
                              field.mul(spec, a, field.mul(spec, b, c)))
        assert np.array_equal(
            field.mul(spec, a, field.add(spec, b, c)),
            field.add(spec, field.mul(spec, a, b), field.mul(spec, a, c)))


# -- reference: schoolbook polynomial arithmetic modulo the modulus ----

def _ref_digits(spec, e):
    return [e // spec.p**k % spec.p for k in range(spec.h)]


def _ref_encoding(spec, coeffs):
    return sum(c * spec.p**k for k, c in enumerate(coeffs))


def _ref_mul(spec, a, b):
    p, h, mod = spec.p, spec.h, spec.modulus
    prod = [0] * (2 * h - 1)
    for i, x in enumerate(_ref_digits(spec, a)):
        for j, y in enumerate(_ref_digits(spec, b)):
            prod[i + j] = (prod[i + j] + x * y) % p
    for k in range(2 * h - 2, h - 1, -1):  # x^h = -(mod[0] + ... )
        top, prod[k] = prod[k], 0
        for i in range(h):
            prod[k - h + i] = (prod[k - h + i] - top * mod[i]) % p
    return _ref_encoding(spec, prod[:h])


def _check_against_schoolbook(spec):
    q = spec.q
    a, b = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
    sums, prods = field.add(spec, a, b), field.mul(spec, a, b)
    for x, y in itertools.product(range(q), repeat=2):
        ref_sum = _ref_encoding(spec, [
            (s + t) % spec.p for s, t in zip(_ref_digits(spec, x),
                                             _ref_digits(spec, y))])
        ref_prod = _ref_mul(spec, x, y)
        assert sums[x, y] == ref_sum and prods[x, y] == ref_prod
        assert field.add(spec, x, y) == ref_sum  # Python ints
        assert (spec.element(x) * spec.element(y)).encoding == ref_prod


REFERENCE_SPECS = sorted({FieldSpec.of(p, h) for p, h in ALL_Q}
                         | {FieldSpec.of(2, 4), FieldSpec.of(3, 3),
                            FieldSpec.of(5, 2), GF9_X2P1}, key=str)


@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=str)
def test_tables_match_schoolbook(spec):
    _check_against_schoolbook(spec)


@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=str)
def test_tables_are_a_primitive_element(spec):
    exp, log = spec.exp, spec.log
    assert len(exp) == len(log) == spec.q
    # exp lists g^0, ..., g^(q-1) = 1, each nonzero element once
    assert sorted(exp[:-1].tolist()) == list(range(1, spec.q)) and exp[-1] == 1
    assert np.array_equal(log[exp[:-1]], np.arange(spec.q - 1))
    g = int(exp[1 % (spec.q - 1)])
    assert all(_ref_mul(spec, int(exp[k]), g) == int(exp[k + 1])
               for k in range(spec.q - 1))
    # no element of smaller encoding generates the multiplicative group
    for c in range(1, g):
        powers, e = {1}, c
        while e != 1:
            powers.add(e)
            e = _ref_mul(spec, e, c)
        assert len(powers) < spec.q - 1


def test_x_is_not_primitive_in_gf9_x2p1():
    # x^2 = -1, so x has order 4 and the generator search must go past it
    assert GF9_X2P1.exp.tolist()[:2] == [1, 4]  # g = 1 + x


def test_tables_built_on_first_arithmetic():
    field._tables.cache_clear()
    spec = FieldSpec.of(2, 4)
    field.add(spec, 3, 5)
    assert field._tables.cache_info().currsize == 0
    spec.element(3) * spec.element(5)
    assert field._tables.cache_info().currsize == 1


def test_coeffs_derived_from_encoding():
    assert field.digits(GF9_X2P1, 5).tolist() == [2, 1]  # 2 + x
    assert field.digits(FieldSpec.of(7), 6).tolist() == [6]
    assert field.from_digits(GF9_X2P1, [[2, 1], [0, 2]]).tolist() == [5, 6]


def test_nonprime_p_rejected():
    with pytest.raises(ValueError):
        FieldSpec.of(6)


@pytest.mark.parametrize("p,h,reason", [
    (2, 0, "extension degree"), (2, -1, "extension degree"),
    (1, 5, "not prime"), (2, 10**9, "exceeds"), (4, 2, "not prime"),
])
def test_of_without_modulus_checks_the_order_first(p, h, reason):
    with pytest.raises(ValueError, match=reason):
        FieldSpec.of(p, h)


def test_of_valid_order_without_modulus_asks_for_one():
    with pytest.raises(ValueError, match="no built-in modulus for GF"):
        FieldSpec.of(11, 2)


def test_parse_bounds_the_order():
    assert FieldSpec.parse("2^6", max_q=64) == FieldSpec.of(2, 6)
    with pytest.raises(ValueError, match="exceeds 64"):
        FieldSpec.parse("2^7", max_q=64)


def test_oversized_p_rejected_before_trial_division(monkeypatch):
    # trial division of the prime 2^61 - 1 would not finish
    def no_trial_division(n):
        raise AssertionError(f"is_prime({n}) called")

    monkeypatch.setattr(field, "is_prime", no_trial_division)
    with pytest.raises(ValueError, match="exceeds"):
        FieldSpec.of(2**61 - 1)


def test_every_cli_field_parses():
    # every prime power up to the CLI's largest plane has a modulus;
    # 7^2 and 2^6 used to ask for one the CLI cannot pass
    from psghost.cli import MAX_CLI_Q
    for q in range(2, MAX_CLI_Q + 1):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        h = 1
        while p**h < q:
            h += 1
        if p**h != q:
            continue
        spec = FieldSpec.parse(str(q) if h == 1 else f"{p}^{h}")
        assert (spec.p, spec.h, spec.q) == (p, h, q)


@pytest.mark.parametrize("p,h", [(7, 2), (2, 6)])
def test_new_default_moduli_make_fields(p, h):
    spec = FieldSpec.of(p, h)
    assert spec.modulus == field.DEFAULT_MODULI[(p, h)]
    _check_against_schoolbook(spec)
