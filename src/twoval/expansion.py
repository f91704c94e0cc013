"""Binary expansions x = sum sigma_k / beta^k for bases beta in (1, 2].

Digits are read off the orbit x_{k+1} = beta*x_k - sigma_k.  On the unit
interval a digit 1 is admissible when beta*x >= 1 and a digit 0 when
beta*x <= 1, so away from the single crossover the digit is forced; the
greedy convention prefers 1 there (making greedy(1, 2) = 111...).  A word
is a plain tuple of 0/1 ints, first digit first.

Enumeration of all expansions works on the tail space [0, 1/(beta-1)] of
values an infinite digit stream can still represent.  There a genuine
overlap window exists for beta < 2 and one point can carry many words.
Words are kept in normal form: a digit 0 that would park the remainder
exactly on the all-ones tail is not taken, which is what makes dyadic
points at beta = 2 single-word.

The enumeration walks the words layer by layer, one digit per layer.  A
layer maps each tail state to the prefixes that reach it, so prefixes that
land on one state share its arithmetic.  Every state in [0, tail] admits a
digit, so layers never shrink and ``max_words`` bounds every layer.  For a
Pisot base and x in its field only finitely many states are reachable
(Schmidt 1980), and the cost follows states times length rather than the
number of words.

A walk of L digits from x that reads the word w and ends on tail state y_L has

    x = value(w) + beta^(-L) * y_L,

exactly, since every step y -> beta*y - sigma is undone by the division
in value(w).  ``twoval expand --values`` reads word values off it: one
power of beta per call, then one multiply and one subtract per distinct
tail state, not one Horner pass per word.  On exact bases the values are
exact; on float bases they carry rounding like any float sum.

These are the branch words of the weighted system of :mod:`twoval.system`
with beta = 1/(1-a): in the coordinate x = (beta-1)*y its branch x/(1-a)
is y -> beta*y and its branch (x-a)/(1-a) is y -> beta*y - 1, so the low
branch is digit 0 and the high one digit 1.  Where 0 < alpha1 < 1 on the
switch region [a, 1-a), the words the system can follow from x are the
expansions of x/(beta-1).

The point and the base share one backend.  Exact bases give exact
orbits; float bases widen each threshold by the float snap distance so that
states grazing it through rounding keep the digits the exact orbit would
produce.
"""

from __future__ import annotations

from .numerics import Scalar, backend_of

#: the longest walk the expansions take; a golden exact orbit that long takes about 25 s on a 2-vCPU Xeon
_MAX_LENGTH = 10**6


class InadmissibleChoiceError(ValueError):
    """A supplied digit choice is not admissible at the current state."""


class BudgetExceededError(RuntimeError):
    """Enumeration found more words than the caller allowed."""


def _check_beta(beta):
    if not 1 < beta <= 2:
        raise ValueError("base must lie in (1, 2]")
    return beta


def evaluate_expansion(digits, beta) -> Scalar:
    """Value of the word: sum of digit_k / beta^k, k = 1..len.

    Each digit is read with ``int()``, so ``"101"`` is the word ``(1, 0, 1)``.
    """
    b = backend_of(beta)
    beta = _check_beta(b(beta))
    word = tuple(map(int, digits))
    if not {0, 1}.issuperset(word):
        raise ValueError("digits must be 0 or 1")
    acc = b.zero
    for d in reversed(word):
        acc = (acc + d) / beta
    return acc


def value_from_tail(x, beta, length: int):
    """The map (w, y) -> x - y*beta^(-length): the value of the word w of that
    length whose walk from x ends on tail state y.

    The all-zero word is worth exactly zero; on floats the subtraction would
    leave rounding residue there, of either sign.
    """
    b = backend_of(x, beta)
    x, scale = b(x), b(beta) ** -length

    def value(word, y):
        return x - y * scale if any(word) else b.zero

    return value


def orbit_walk(x, beta, length: int, choose=None) -> tuple:
    """The walk behind ``orbit_expansion``: its word and the tail state it ends on."""
    if not 0 <= length <= _MAX_LENGTH:
        raise ValueError(f"length must lie in [0, {_MAX_LENGTH}]")
    if choose is not None and choose != "lazy" and not callable(choose):
        raise TypeError("choose must be None, 'lazy', or a callable")
    b = backend_of(x, beta)
    x, beta = b(x), _check_beta(b(beta))
    if x < 0 or x > 1:
        raise ValueError("point must lie in [0,1]")
    is_float = b.is_float
    # digit 1 is admissible from above up and digit 0 up to below; above <= below,
    # and on the exact backend both are 1, so each rule costs one comparison
    below, above = b.one + b.snap, b.one - b.snap
    digits = []
    for k in range(length):
        bx = beta * x
        if choose is None:
            d = 1 if bx >= above else 0
        elif choose == "lazy":
            d = 0 if bx <= below else 1
        else:
            options = (0,) * (bx <= below) + (1,) * (bx >= above)
            d = choose(k, options)
            if d not in options:
                raise InadmissibleChoiceError(f"digit {d!r} not admissible at step {k}")
            d = int(d)  # an equal bool or float choice still yields an int digit
        x = bx - d
        if is_float:
            x = min(max(x, 0.0), 1.0)
        digits.append(d)
    return tuple(digits), x


def orbit_expansion(x, beta, length: int, choose=None) -> tuple:
    """The word of ``length`` digits read off the orbit, with a pluggable rule
    at crossover states.

    ``choose`` may be None (prefer 1: greedy), "lazy" (prefer 0), or a
    callable ``(k, options) -> digit`` receiving the admissible digits in
    ascending order.  A callable returning anything else raises
    InadmissibleChoiceError.
    """
    return orbit_walk(x, beta, length, choose)[0]


def greedy_expansion(x, beta, length: int) -> tuple:
    """The lexicographically largest word: digit 1 whenever beta*x >= 1."""
    return orbit_expansion(x, beta, length)


def enumerate_walk(x, beta, length: int, max_words: int = 4096) -> list:
    """The walk behind ``enumerate_expansions``: its words, in its order, each
    paired with the tail state it ends on."""
    if not 0 <= length <= _MAX_LENGTH:
        raise ValueError(f"length must lie in [0, {_MAX_LENGTH}]")
    if max_words < 1:
        raise ValueError("max_words must be positive")
    b = backend_of(x, beta)
    x, beta = b(x), _check_beta(b(beta))
    tail = 1 / (beta - 1)
    if x < 0 or x > tail:
        raise ValueError("point is not representable: must lie in [0, 1/(beta-1)]")
    is_float = b.is_float
    above = b.one - b.snap
    # tail state -> the prefixes that reach it, each as the int of its digits
    layer = {x: [0]}
    for _ in range(length):
        nxt: dict = {}
        for y, codes in layer.items():
            by = beta * y
            if by >= above:
                z = by - 1
                if is_float:
                    z = min(max(z, 0.0), tail)
                nxt.setdefault(z, []).extend(2 * c + 1 for c in codes)
            # strictly below the all-ones tail value: keeps words in normal form
            if by < tail:
                nxt.setdefault(by, []).extend(2 * c for c in codes)
        layer = nxt
        # every state admits a digit, so layers never shrink
        if sum(map(len, layer.values())) > max_words:
            raise BudgetExceededError(f"more than {max_words} words")
    state = {c: y for y, cs in layer.items() for c in cs}
    # a leading 1 bit keeps the word's leading zeros
    return [(tuple(map(int, format(c | 1 << length, "b")[1:])), state[c]) for c in sorted(state, reverse=True)]


def enumerate_expansions(x, beta, length: int, max_words: int = 4096) -> list:
    """All normal-form words of the given length that can start an expansion of x.

    Words come out as tuples in decreasing lexicographic order, so the first
    one is the greedy word.  Each word w satisfies
    0 <= x - value(w) <= tail/beta^length with tail = 1/(beta-1).
    Raises BudgetExceededError beyond ``max_words`` words.
    """
    return [w for w, _ in enumerate_walk(x, beta, length, max_words)]
