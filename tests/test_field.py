import itertools
import operator
import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import schoolbook
from psghost import field
from psghost.field import FieldSpec, multinomial_int

GF7 = FieldSpec(7)
GF4 = FieldSpec(2, 2)
GF9 = FieldSpec(3, 2)  # modulus x^2 + 2x + 2


class _GF9X2P1(FieldSpec):
    """GF(9) modulo x^2 + 1, under which x has order 4, not 8.

    The library builds GF(9) from its built-in modulus only; this test
    double runs the same table builder on another irreducible modulus.
    """

    @property
    def modulus(self):
        return (1, 0, 1)


GF9_X2P1 = _GF9X2P1(3, 2)


class _GF9X2(FieldSpec):
    """GF(9)'s digits modulo the reducible x^2: a ring with zero divisors,
    in which no element has order 8."""

    @property
    def modulus(self):
        return (0, 0, 1)


ALL_Q = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
         (13, 1), (17, 1), (19, 1), (23, 1)]
# (p, h) of every prime power p^h <= MAX_Q
PRIME_POWERS = [(p, h) for p in range(2, field.MAX_Q + 1)
                if all(p % d for d in range(2, p))
                for h in range(1, field.MAX_Q.bit_length())
                if p**h <= field.MAX_Q]
SRC = Path(field.__file__).resolve().parent.parent


def power(spec, a, n):
    """a^n for n >= 1, by n - 1 products of field.mul."""
    x = a
    for _ in range(n - 1):
        x = field.mul(spec, x, a)
    return x


def test_add_prime_field():
    assert field.add(GF7, 3, 5) == 1


def test_add_characteristic_two():
    assert field.add(GF4, 2, 2) == 0  # x + x


def test_add_gf9_componentwise():
    assert field.add(GF9, 4, 5) == 6  # (1 + x) + (2 + x) = 2x


def test_mul_prime_field():
    e = GF7.elements()
    assert e[3] * e[5] == e[1]
    assert e[6] * e[6] == e[1]  # (-1)^2
    one = FieldSpec(2).elements()[1]
    assert one * one == one


def test_mul_gf4_reduction():
    e = GF4.elements()
    x = e[2]
    assert x * x == e[3]  # x + 1
    assert x * e[3] == e[1]  # x (x + 1) = x^2 + x = 1


def test_mul_gf9_x_squared():
    e = GF9.elements()
    x = e[3]  # x
    assert x * x == e[4]  # x^2 = -2x - 2 = x + 1


def test_spec_mismatch_raises():
    # GF9_X2P1 has the (p, h) of GF9 but another modulus
    for a, b in [(GF7, FieldSpec(5)), (GF9, GF9_X2P1)]:
        with pytest.raises(ValueError, match="field mismatch"):
            a.elements()[1] * b.elements()[1]
    with pytest.raises(ValueError, match="field mismatch"):
        GF7.elements()[1] * 1


def test_pow_q_minus_1_examples():
    e = GF7.elements()
    assert reduce(operator.mul, [e[4]] * 6) == e[1]
    assert reduce(operator.mul, [e[0]] * 6) == e[0]
    e = GF9.elements()
    assert reduce(operator.mul, [e[3]] * 8) == e[1]  # x^8 = 1
    assert reduce(operator.mul, [e[3]] * 4) != e[1]  # x is primitive


@pytest.mark.parametrize("p,h", ALL_Q)
def test_pow_q_minus_1_exhaustive(p, h):
    spec = FieldSpec(p, h)
    want = [0] + [1] * (spec.q - 1)
    assert power(spec, np.arange(spec.q), spec.q - 1).tolist() == want


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
def test_field_axioms(p, h):
    # every triple of elements, 12167 at q = 23
    spec = FieldSpec(p, h)
    a, b, c = np.ix_(*[range(spec.q)] * 3)

    def add(x, y):
        return field.add(spec, x, y)

    def mul(x, y):
        return field.mul(spec, x, y)

    assert np.array_equal(add(add(a, b), c), add(a, add(b, c)))
    assert np.array_equal(mul(mul(a, b), c), mul(a, mul(b, c)))
    assert np.array_equal(mul(a, add(b, c)), add(mul(a, b), mul(a, c)))
    a = np.arange(spec.q)
    assert not add(a, mul(a, p - 1)).any()  # -a = (p-1) a
    inv = schoolbook.tables(spec).inv
    assert mul(a[1:], inv[1:]).tolist() == [1] * (spec.q - 1)


@pytest.mark.parametrize("p,h", ALL_Q)
def test_frobenius(p, h):
    # (a + b)^p = a^p + b^p for every pair
    spec = FieldSpec(p, h)
    a, b = np.ix_(*[range(spec.q)] * 2)
    assert np.array_equal(power(spec, field.add(spec, a, b), p),
                          field.add(spec, power(spec, a, p),
                                    power(spec, b, p)))


def test_encoding_round_trip():
    for p, h in ALL_Q:
        spec = FieldSpec(p, h)
        els = spec.elements()
        assert [x.encoding for x in els] == list(range(spec.q))
        assert all(x.spec is spec for x in els)


def test_parse():
    assert FieldSpec.parse("7") == GF7
    assert FieldSpec.parse("3^2") == FieldSpec(3, 2)
    assert str(FieldSpec(3, 2)) == "3^2"
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


def _check_against_schoolbook(spec):
    q = spec.q
    ref_add, ref_mul, _, _ = schoolbook.tables(spec)
    a, b = np.ix_(range(q), range(q))
    assert np.array_equal(field.add(spec, a, b), ref_add)
    assert np.array_equal(field.mul(spec, a, b), ref_mul)
    assert [[field.add(spec, x, y) for y in range(q)]  # Python ints
            for x in range(q)] == ref_add.tolist()
    els = spec.elements()
    assert [[(x * y).encoding for y in els] for x in els] == ref_mul.tolist()


REFERENCE_SPECS = sorted({FieldSpec(p, h) for p, h in ALL_Q}
                         | {FieldSpec(2, 4), FieldSpec(2, 5),
                            FieldSpec(3, 3), FieldSpec(5, 2), GF9_X2P1},
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
    assert all(schoolbook.mul(spec, int(exp[k]), g) == int(exp[k + 1])
               for k in range(spec.q - 1))
    # no element of smaller encoding generates the multiplicative group
    for c in range(1, g):
        powers, e = {1}, c
        while e != 1:
            powers.add(e)
            e = schoolbook.mul(spec, e, c)
        assert len(powers) < spec.q - 1


def test_x_is_not_primitive_in_gf9_x2p1():
    # x^2 = -1, so x has order 4 and the generator search must go past it
    assert GF9_X2P1.exp.tolist()[:2] == [1, 4]  # g = 1 + x


def test_a_ring_without_a_primitive_element_is_refused():
    # x^2 = 0 under the reducible modulus, so no power cycle has length 8
    with pytest.raises(ArithmeticError,
                       match=r"GF\(3\^2\) has no primitive element"):
        _GF9X2(3, 2).exp


def test_least_candidate_not_primitive_in_gf7():
    # 2^3 = 8 = 1, so 2 has order 3 and the generator search must go past it
    assert FieldSpec(7).exp.tolist()[:2] == [1, 3]  # g = 3


def test_tables_built_on_first_arithmetic():
    field._tables.cache_clear()
    spec = FieldSpec(2, 4)
    field.add(spec, 3, 5)
    assert field._tables.cache_info().currsize == 0
    els = spec.elements()
    assert field._tables.cache_info().currsize == 0
    els[3] * els[5]
    assert field._tables.cache_info().currsize == 1


def test_coeffs_derived_from_encoding():
    assert field.digits(GF9, 5).tolist() == [2, 1]  # 2 + x
    assert field.digits(FieldSpec(7), 6).tolist() == [6]
    assert field.from_digits(GF9, [[2, 1], [0, 2]]).tolist() == [5, 6]


def test_nonprime_p_rejected():
    with pytest.raises(ValueError):
        FieldSpec(6)


@pytest.mark.parametrize("p,h,reason", [
    (2, 0, "extension degree"), (2, -1, "extension degree"),
    (1, 5, "not prime"), (2, 10**9, "exceeds"), (4, 2, "not prime"),
    (11, 2, "exceeds 64"),
])
def test_of_without_modulus_checks_the_order_first(p, h, reason):
    with pytest.raises(ValueError, match=reason):
        FieldSpec(p, h)


@pytest.mark.parametrize("p,h", [(7.0, 1), (7, 1.0), ("7", 1), (7, None)])
def test_order_must_be_ints(p, h):
    # 7.0 used to build a field equal to GF(7) that failed deep in a builder
    with pytest.raises(ValueError, match="p and h are ints"):
        FieldSpec(p, h)


def test_numpy_ints_are_stored_as_ints():
    # a fresh process, so that no cache holds GF(5) built from ints: the
    # report used to fail in pow() on the numpy p
    code = ("import numpy as np\n"
            "from psghost import ghost\n"
            "from psghost.field import FieldSpec\n"
            "spec = FieldSpec(np.int64(5), np.uint8(1))\n"
            "print(type(spec.p).__name__, type(spec.h).__name__,\n"
            "      ghost.ghost_report(spec).ghost_exponent)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "int int 16\n"


def test_parse_bounds_the_order():
    # one bound, MAX_Q, for the library and the CLI alike
    assert FieldSpec.parse("2^6") == FieldSpec(2, 6)
    for make in (lambda: FieldSpec.parse("2^7"), lambda: FieldSpec(67)):
        with pytest.raises(ValueError, match="exceeds 64"):
            make()


def test_oversized_p_rejected_before_trial_division(monkeypatch):
    # trial division of the prime 2^61 - 1 would not finish
    def no_trial_division(n):
        raise AssertionError(f"is_prime({n}) called")

    monkeypatch.setattr(field, "is_prime", no_trial_division)
    with pytest.raises(ValueError, match="exceeds"):
        FieldSpec(2**61 - 1)


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
    spec = FieldSpec(p, h)
    assert spec.modulus == field.DEFAULT_MODULI[(p, h)]
    _check_against_schoolbook(spec)
