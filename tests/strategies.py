"""Shared hypothesis strategies for exact subgroup values."""

from fractions import Fraction

from hypothesis import strategies as st

from chabauty_rz import INF, TypeI, TypeII, TypeIII, TypeIV

small_int = st.integers(min_value=-9, max_value=9)
positive_den = st.integers(min_value=1, max_value=9)


@st.composite
def fractions_st(draw, signed=True, nonzero=False):
    num = draw(small_int if signed else positive_den)
    if nonzero and num == 0:
        num = 1
    return Fraction(num, draw(positive_den))


@st.composite
def subgroups_st(draw):
    fam = draw(st.integers(min_value=0, max_value=4))
    if fam == 0:
        alpha = draw(
            st.one_of(
                st.just(Fraction(0)),
                fractions_st(signed=False),
            )
        )
        return TypeI(alpha)
    if fam == 1:
        return TypeI(INF)
    if fam == 2:
        return TypeII(draw(fractions_st()), draw(st.integers(1, 4)))
    if fam == 3:
        return TypeIII(
            draw(fractions_st(signed=False)),
            draw(fractions_st()) % 1,
            draw(st.integers(1, 4)),
        )
    return TypeIV(draw(st.integers(1, 4)))


@st.composite
def generator_lists_st(draw):
    n = draw(st.integers(min_value=0, max_value=3))
    return [
        (draw(fractions_st()), draw(st.integers(min_value=-3, max_value=3)))
        for _ in range(n)
    ]


# -- literal texts, valid and mutated ------------------------------------------

integers = st.integers()
int_text = integers.map(str)
rational_text = st.one_of(
    int_text, st.builds("{}/{}".format, integers, integers)
)


@st.composite
def literals(draw):
    family = draw(st.sampled_from(["I", "II", "III", "IV", "gen"]))
    if family == "I":
        alpha = draw(st.one_of(st.just("inf"), rational_text))
        return f"I(alpha={alpha})"
    if family == "II":
        return f"II(gamma={draw(rational_text)},n={draw(int_text)})"
    if family == "III":
        return (f"III(alpha={draw(rational_text)},beta={draw(rational_text)},"
                f"n={draw(int_text)})")
    if family == "IV":
        return f"IV(n={draw(int_text)})"
    gens = draw(st.lists(st.tuples(rational_text, int_text), max_size=3))
    return "gen[" + ",".join(f"({x},{m})" for x, m in gens) + "]"


@st.composite
def mutated(draw, base):
    """``base`` with a few characters deleted, replaced or inserted."""
    text = list(draw(base))
    alphabet = st.sampled_from(list("()[],=/-+ 0123456789IVgenalphbtinf") + ["\x00", "é"])
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(["delete", "replace", "insert"]))
        if op == "insert" or i == len(text):
            text.insert(i, draw(alphabet))
        elif op == "delete":
            del text[i]
        else:
            text[i] = draw(alphabet)
    return "".join(text)
