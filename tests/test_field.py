import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from psghost import field
from psghost.field import FieldSpec, multinomial_int

GF7 = FieldSpec.of(7)
GF4 = FieldSpec.of(2, 2)
GF9 = FieldSpec.of(3, 2)  # modulus x^2 + 2x + 2


class _GF9X2P1(FieldSpec):
    """GF(9) modulo x^2 + 1, under which x has order 4, not 8.

    The library builds GF(9) from its built-in modulus only; this test
    double runs the same table builder on another irreducible modulus.
    """

    @property
    def modulus(self):
        return (1, 0, 1)


GF9_X2P1 = _GF9X2P1(3, 2)
ALL_Q = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
         (13, 1), (17, 1), (19, 1), (23, 1)]
# (p, h) of every prime power p^h <= MAX_Q
PRIME_POWERS = [(p, h) for p in range(2, field.MAX_Q + 1)
                if all(p % d for d in range(2, p))
                for h in range(1, field.MAX_Q.bit_length())
                if p**h <= field.MAX_Q]
SRC = Path(field.__file__).resolve().parent.parent


def spec_of(p, h):
    return FieldSpec.of(p, h)


def test_add_prime_field():
    assert field.add(GF7, 3, 5) == 1


def test_add_characteristic_two():
    assert field.add(GF4, 2, 2) == 0  # x + x


def test_add_gf9_componentwise():
    assert field.add(GF9, 4, 5) == 6  # (1 + x) + (2 + x) = 2x


def test_mul_prime_field():
    assert GF7.element(3) * GF7.element(5) == GF7.element(1)


def test_mul_gf4_reduction():
    x = GF4.element(2)
    assert x * x == GF4.element(3)  # x + 1


def test_mul_gf9_x_squared():
    x = GF9.element(3)  # x
    assert x * x == GF9.element(4)  # x^2 = -2x - 2 = x + 1


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
    assert FieldSpec.parse(" 3^2\n") == GF9
    assert FieldSpec.parse("2^5").modulus == (1, 0, 1, 0, 0, 1)
    assert FieldSpec.parse("7").modulus == (0, 1)  # x


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
    # the reference below certifies the built-in moduli
    accepted = sum(_ref_irreducible(low + (1,), p)
                   for low in itertools.product(range(p), repeat=h))
    expected = sum(_mobius(d) * p**(h // d)
                   for d in range(1, h + 1) if h % d == 0) // h
    assert accepted == expected


@pytest.mark.parametrize("p,h", sorted(field.DEFAULT_MODULI))
def test_default_moduli_are_irreducible(p, h):
    assert _ref_irreducible(field.DEFAULT_MODULI[(p, h)], p)


# -- reference: schoolbook polynomial arithmetic modulo the modulus ----

def _ref_remainder(f, g, p):
    """f mod g over F_p, coefficients low-order first, g monic."""
    f, d = list(f), len(g) - 1
    for k in range(len(f) - 1, d - 1, -1):  # cancel x^k by x^(k-d) g
        top = f[k]
        for i, c in enumerate(g):
            f[k - d + i] = (f[k - d + i] - top * c) % p
    return f[:d]


def _ref_irreducible(f, p):
    """A monic f over F_p is irreducible iff no monic g of degree 1 to
    deg(f)/2 divides it."""
    return all(any(_ref_remainder(f, low + (1,), p))
               for d in range(1, (len(f) - 1) // 2 + 1)
               for low in itertools.product(range(p), repeat=d))


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
                         | {FieldSpec.of(2, 4), FieldSpec.of(2, 5),
                            FieldSpec.of(3, 3), FieldSpec.of(5, 2), GF9_X2P1},
                         key=lambda spec: (str(spec), spec is GF9_X2P1))


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


def test_least_candidate_not_primitive_in_gf7():
    # 2^3 = 8 = 1, so 2 has order 3 and the generator search must go past it
    assert FieldSpec.of(7).exp.tolist()[:2] == [1, 3]  # g = 3


def test_tables_built_on_first_arithmetic():
    field._tables.cache_clear()
    spec = FieldSpec.of(2, 4)
    field.add(spec, 3, 5)
    assert field._tables.cache_info().currsize == 0
    spec.element(3) * spec.element(5)
    assert field._tables.cache_info().currsize == 1


def test_coeffs_derived_from_encoding():
    assert field.digits(GF9, 5).tolist() == [2, 1]  # 2 + x
    assert field.digits(FieldSpec.of(7), 6).tolist() == [6]
    assert field.from_digits(GF9, [[2, 1], [0, 2]]).tolist() == [5, 6]


def test_nonprime_p_rejected():
    with pytest.raises(ValueError):
        FieldSpec.of(6)


@pytest.mark.parametrize("p,h,reason", [
    (2, 0, "extension degree"), (2, -1, "extension degree"),
    (1, 5, "not prime"), (2, 10**9, "exceeds"), (4, 2, "not prime"),
    (11, 2, "exceeds 64"),
])
def test_of_without_modulus_checks_the_order_first(p, h, reason):
    with pytest.raises(ValueError, match=reason):
        FieldSpec.of(p, h)


@pytest.mark.parametrize("p,h", [(7.0, 1), (7, 1.0), ("7", 1), (7, None)])
def test_order_must_be_ints(p, h):
    # 7.0 used to build a field equal to GF(7) that failed deep in a builder
    with pytest.raises(ValueError, match="p and h are ints"):
        FieldSpec.of(p, h)


def test_numpy_ints_are_stored_as_ints():
    # a fresh process, so that no cache holds GF(5) built from ints: the
    # report used to fail in pow() on the numpy p
    code = ("import numpy as np\n"
            "from psghost import ghost\n"
            "from psghost.field import FieldSpec\n"
            "spec = FieldSpec.of(np.int64(5), np.uint8(1))\n"
            "print(type(spec.p).__name__, type(spec.h).__name__,\n"
            "      ghost.ghost_report(spec).ghost_exponent)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "int int 16\n"


def test_parse_bounds_the_order():
    # one bound, MAX_Q, for the library and the CLI alike
    assert FieldSpec.parse("2^6") == FieldSpec.of(2, 6)
    for make in (lambda: FieldSpec.parse("2^7"), lambda: FieldSpec.of(67)):
        with pytest.raises(ValueError, match="exceeds 64"):
            make()


def test_oversized_p_rejected_before_trial_division(monkeypatch):
    # trial division of the prime 2^61 - 1 would not finish
    def no_trial_division(n):
        raise AssertionError(f"is_prime({n}) called")

    monkeypatch.setattr(field, "is_prime", no_trial_division)
    with pytest.raises(ValueError, match="exceeds"):
        FieldSpec.of(2**61 - 1)


def test_every_cli_field_parses():
    # every prime power up to MAX_Q has a modulus; 7^2 and 2^6 used to ask
    # for one the CLI cannot pass
    assert max(p**h for p, h in PRIME_POWERS) == field.MAX_Q == 2**6
    for p, h in PRIME_POWERS:
        spec = FieldSpec.parse(str(p) if h == 1 else f"{p}^{h}")
        assert (spec.p, spec.h, spec.q) == (p, h, p**h)
        assert len(spec.modulus) == h + 1 and spec.modulus[-1] == 1


def test_building_a_field_loads_no_numpy():
    # a fresh process: this one has numpy loaded already
    code = ("import sys\n"
            "from psghost.field import FieldSpec\n"
            f"for p, h in {PRIME_POWERS!r}:\n"
            "    FieldSpec.parse(f'{p}^{h}')\n"
            "print(sorted({'numpy', 'psghost.linalg'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("p,h", [(7, 2), (2, 6)])
def test_new_default_moduli_make_fields(p, h):
    spec = FieldSpec.of(p, h)
    assert spec.modulus == field.DEFAULT_MODULI[(p, h)]
    _check_against_schoolbook(spec)
