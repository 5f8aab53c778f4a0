"""Shared hypothesis strategies: subgroup values, generator lists, blow-up
inputs and literal texts, valid and mutated."""

from fractions import Fraction

from hypothesis import strategies as st

from chabauty_rz import INF, TypeI, TypeII, TypeIII, TypeIV, totient

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


# -- literal texts with whitespace around every token --------------------------

#: Characters ``str.isspace`` accepts, ASCII and not.
SPACES = [" ", "\t", "\n", "\x0b", "\x1c", "\xa0", "\u2003", "\u2028", "\u3000"]
#: Decimal digits of other scripts, which ``int()`` reads.
FOREIGN_DIGITS = ["\u0663", "\uff17", "\u0967"]

space = st.lists(st.sampled_from(SPACES), max_size=2).map("".join)
#: Letters, digits or "_" glued to a name, keyword or "inf"; only "_" and
#: the empty string leave the literal valid.
glue = st.sampled_from([""] * 12 + ["_", "x", "1", "\u00e9"])
#: A comma between the points of ``gen[...]``, at times left out.
comma = st.sampled_from([","] * 7 + [""])


@st.composite
def integer_text(draw):
    sign = draw(st.sampled_from(["", "", "+", "-"]))
    zeros = "0" * draw(st.integers(0, 2))
    kind = draw(st.integers(0, 9))
    if kind == 0:  # at and past the interpreter's 4300-digit limit
        digits = "1" * draw(st.sampled_from([4300, 4301]))
    elif kind == 1:
        digits = draw(st.sampled_from(FOREIGN_DIGITS))
    elif kind == 2:
        digits = "0"
    else:
        digits = str(draw(st.integers(0, 10**6)))
    return sign + zeros + digits


@st.composite
def rational_text_spaced(draw):
    num = draw(integer_text())
    if draw(st.booleans()):
        return num + draw(space) + "/" + draw(space) + draw(integer_text())
    return num


@st.composite
def spaced_literals(draw):
    """A literal as a list of tokens joined by drawn whitespace, with at
    times a character glued to a name."""
    fam = draw(st.sampled_from(["I", "II", "III", "IV", "gen"]))
    tokens = [fam + draw(glue)]
    if fam == "gen":
        tokens.append("[")
        for i in range(draw(st.integers(0, 3))):
            tokens += ([draw(comma)] if i else []) + [
                "(", draw(rational_text_spaced()), ",", draw(integer_text()), ")"]
        tokens.append("]")
    else:
        fields = {"I": ["alpha"], "II": ["gamma", "n"], "III": ["alpha", "beta", "n"],
                  "IV": ["n"]}[fam]
        tokens.append("(")
        for i, name in enumerate(fields):
            if name == "n":
                value = draw(integer_text())
            elif fam == "I" and draw(st.booleans()):
                value = "inf" + draw(glue)
            else:
                value = draw(rational_text_spaced())
            tokens += ([","] if i else []) + [name + draw(glue), "=", value]
        tokens.append(")")
    return draw(space) + "".join(tok + draw(space) for tok in tokens)


#: Texts to parse as a literal: spaced, mutated and arbitrary.
literal_texts = st.one_of(spaced_literals(), mutated(spaced_literals()), mutated(literals()),
                          st.text(max_size=20))
#: Texts to parse as a rational: spaced, mutated and arbitrary.
rational_texts = st.one_of(st.builds("{}{}".format, space, rational_text_spaced()),
                           mutated(rational_text_spaced()), mutated(rational_text),
                           st.text(max_size=10))


# -- blow-up inputs ------------------------------------------------------------

@st.composite
def circle_points(draw):
    # small denominators land exactly on guard bands and interval ends;
    # 48-bit ones are generic
    den = draw(st.one_of(st.integers(1, 64), st.integers(2 ** 47, 2 ** 48 - 1)))
    return Fraction(draw(st.integers(0, den - 1)), den)


#: A precision B in [1, 40] and the index of one of its labels a/b in
#: [0, 1), b <= B, of which there are totient(1) + ... + totient(B).
label_indices = st.integers(1, 40).flatmap(lambda B: st.tuples(
    st.just(B), st.integers(0, sum(map(totient, range(1, B + 1))) - 1)))
