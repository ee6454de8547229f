"""Canonical-form arithmetic in the algebra of polynomial integro-differential
operators.

Arity-1 elements expand uniquely over the basis {H^k d^i, H^k, int^i H^k,
e[s,t]}; arity-n elements over n-fold tensor products of these.  Slot terms
are encoded as tuples:

    ('D', i, k)  with i >= 1   means  H^k * d^i
    ('H', k)                   means  H^k
    ('I', i, k)  with i >= 1   means  int^i * H^k
    ('E', s, t)  with s,t >= 0 means  e[s,t] = int^s*d^t - int^(s+1)*d^(t+1)

Products are computed by rewriting the right factor as a word in the
generators d, int, H and folding the word through the left factor one
generator at a time; every rewrite step is an exact identity in the algebra.

An Operator works in integer form: one denominator `den` > 0 and two dicts
of numerators, `re` (every live term, its value 0 only when the term is
purely imaginary) and `im` (the nonzero imaginary numerators, or None when
every coefficient is rational).  The term t has coefficient
(re[t] + im[t]*i)/den.  The form is canonical -- gcd(den, every numerator)
= 1 and no term is zero -- so `==` and `hash` compare it.  Products,
commutators, sums, negation and scaling run on these ints, with the slot
structure constants ints too, and normalize once per result.  `Scalar`s are
built only where a coefficient is read: `.terms` builds them on first read
(for printing, JSON, graded components and the involution), and
`action.act_monomial` for its images.
"""

from __future__ import annotations

from math import comb, gcd
from typing import Dict, Iterable, Optional, Tuple, Union

from .parser import left_spine
from .poly import UniPoly
from .scalars import Scalar, common_den, signed_sum

Slot = Tuple
TermN = Tuple[Slot, ...]

IDENT: Slot = ("H", 0)

_KIND_ORDER = {"D": 0, "H": 1, "I": 2, "E": 3}


def slot_sort_key(slot: Slot) -> Tuple:
    return (_KIND_ORDER[slot[0]],) + slot[1:]


def term_sort_key(term: TermN) -> Tuple:
    return tuple(slot_sort_key(s) for s in term)


def slot_degree(slot: Slot) -> int:
    kind = slot[0]
    if kind == "D":
        return -slot[1]
    if kind == "I":
        return slot[1]
    if kind == "E":
        return slot[1] - slot[2]
    return 0


def slot_index_bound(slot: Slot) -> int:
    kind = slot[0]
    if kind == "D" or kind == "I":
        return slot[1]
    if kind == "E":
        return max(slot[1], slot[2])
    return 0


def _check_slot(slot: Slot):
    kind = slot[0]
    if kind == "D" or kind == "I":
        if slot[1] < 1 or slot[2] < 0:
            raise ValueError(f"bad slot term {slot}")
    elif kind == "H":
        if slot[1] < 0:
            raise ValueError(f"bad slot term {slot}")
    elif kind == "E":
        if slot[1] < 0 or slot[2] < 0:
            raise ValueError(f"bad slot term {slot}")
    else:
        raise ValueError(f"unknown slot kind {slot}")


# -- arity-1 slot calculus ------------------------------------------------

# The structure constants are integers: a slot combination maps slot terms
# to nonzero ints.
SlotCombo = Dict[Slot, int]


def _combo_add(dst: SlotCombo, slot: Slot, c: int):
    if c:
        s = dst.get(slot, 0) + c
        if s:
            dst[slot] = s
        else:
            del dst[slot]


def _int_pow_times_shifted(i: int, k: int, shift: int) -> SlotCombo:
    """Canonical terms of int^i * (H + shift)^k, i >= 0, shift = +-1."""
    return {("I", i, j) if i else ("H", j): comb(k, j) * shift ** (k - j) for j in range(k + 1)}


def _slot_times_generator(slot: Slot, g: str) -> SlotCombo:
    """Right-multiply one canonical slot term by a generator d / int / H."""
    kind = slot[0]
    out: SlotCombo = {}
    if g == "d":
        if kind == "D":
            out[("D", slot[1] + 1, slot[2])] = 1
        elif kind == "H":
            out[("D", 1, slot[1])] = 1
        elif kind == "I":
            # int^i H^k d = int^(i-1) (H-1)^k - [k=0] e[i-1,0]
            i, k = slot[1], slot[2]
            out = _int_pow_times_shifted(i - 1, k, -1)
            if k == 0:
                out[("E", i - 1, 0)] = -1
        else:  # E
            out[("E", slot[1], slot[2] + 1)] = 1
    elif g == "int":
        if kind == "D":
            i, k = slot[1], slot[2]
            out[("D", i - 1, k) if i > 1 else ("H", k)] = 1
        elif kind == "H":
            out = _int_pow_times_shifted(1, slot[1], 1)
        elif kind == "I":
            out = _int_pow_times_shifted(slot[1] + 1, slot[2], 1)
        else:  # E
            s, t = slot[1], slot[2]
            if t > 0:
                out[("E", s, t - 1)] = 1
    elif g == "H":
        if kind == "D":
            # H^k d^i H = H^k (H+i) d^i
            i, k = slot[1], slot[2]
            out[("D", i, k + 1)] = 1
            out[("D", i, k)] = i
        elif kind == "H":
            out[("H", slot[1] + 1)] = 1
        elif kind == "I":
            out[("I", slot[1], slot[2] + 1)] = 1
        else:  # E
            out[slot] = slot[2] + 1
    else:
        raise ValueError(f"unknown generator {g!r}")
    return out


def _combo_times_word(combo: SlotCombo, word: Iterable[str]) -> SlotCombo:
    for g in word:
        nxt: SlotCombo = {}
        for slot, c in combo.items():
            for s2, c2 in _slot_times_generator(slot, g).items():
                _combo_add(nxt, s2, c * c2)
        combo = nxt
    return combo


_MUL1_CACHE: Dict[Tuple[Slot, Slot], SlotCombo] = {}
# A long run of arity-3 operator products needs about 1,250 entries; the
# cache is emptied whole when it reaches this size.
_MUL1_CACHE_MAX = 65536


def mul_slot_terms(a: Slot, b: Slot) -> SlotCombo:
    """Structure constants: product of two canonical slot terms."""
    key = (a, b)
    hit = _MUL1_CACHE.get(key)
    if hit is not None:
        return hit
    kind = b[0]
    start: SlotCombo = {a: 1}
    if kind == "D":
        out = _combo_times_word(start, ["H"] * b[2] + ["d"] * b[1])
    elif kind == "H":
        out = _combo_times_word(start, ["H"] * b[1])
    elif kind == "I":
        out = _combo_times_word(start, ["int"] * b[1] + ["H"] * b[2])
    else:  # E(s,t) = int^s d^t - int^(s+1) d^(t+1)
        s, t = b[1], b[2]
        pos = _combo_times_word(start, ["int"] * s + ["d"] * t)
        neg = _combo_times_word(start, ["int"] * (s + 1) + ["d"] * (t + 1))
        out = dict(pos)
        for slot, c in neg.items():
            _combo_add(out, slot, -c)
    if len(_MUL1_CACHE) >= _MUL1_CACHE_MAX:
        _MUL1_CACHE.clear()
    _MUL1_CACHE[key] = out
    return out


def over_denominator(den: int, re: Dict, im: Optional[Dict]) -> Dict:
    """The nonzero (re[key] + im[key]*i)/den as Scalars, im missing a key
    meaning 0: where integer sums become coefficients."""
    frac = Scalar.frac
    if not im:
        return {key: frac(r, 0, den) for key, r in re.items() if r}
    out = {}
    for key, r in re.items():
        i = im.get(key, 0)
        if r or i:
            out[key] = frac(r, i, den)
    return out


Numerators = Dict[TermN, int]


def _mul_add(out: Numerators, xs: Numerators, ys: Numerators, sign: int):
    """out += sign * xs * ys on one part of each operand's numerators: per
    term pair, the slot products' expansions tensored.  The slots but the
    last fold into prefixes; the last slot's entries go straight into out.
    An empty slot product makes the pair's product zero.  At arity 1 there
    is no prefix, so the one slot's entries go into out without the prefix
    list and tuple concatenation, which make arity-1 products 1.5x slower."""
    get = _MUL1_CACHE.get
    add = out.get
    ys = [(tb, cb) for tb, cb in ys.items() if cb]
    for ta, ca in xs.items():
        if not ca:
            continue
        ca *= sign
        if len(ta) == 1:
            a = ta[0]
            for (b,), cb in ys:
                combo = get((a, b))
                if combo is None:
                    combo = mul_slot_terms(a, b)
                v = ca * cb
                for s, k in combo.items():
                    t = (s,)
                    out[t] = add(t, 0) + v * k
            continue
        for tb, cb in ys:
            combos = []
            for key in zip(ta, tb):
                combo = get(key)
                if combo is None:
                    combo = mul_slot_terms(*key)
                if not combo:
                    break
                combos.append(combo.items())
            else:
                last = combos.pop()
                prefixes = [((), ca * cb)]
                for combo in combos:
                    prefixes = [(p + (s,), v * k) for p, v in prefixes for s, k in combo]
                for p, v in prefixes:
                    for s, k in last:
                        t = p + (s,)
                        out[t] = add(t, 0) + v * k


def _product_into(re: Numerators, im: Numerators, x: "Operator", y: "Operator", sign: int):
    """(re, im) += sign * x * y on numerators, over x.den * y.den:
    (a + bi)(c + ei) = (ac - be) + (ae + bc)i, one bilinear pass per part."""
    _mul_add(re, x.re, y.re, sign)
    if x.im and y.im:
        _mul_add(re, x.im, y.im, -sign)
    if y.im:
        _mul_add(im, x.re, y.im, sign)
    if x.im:
        _mul_add(im, x.im, y.re, sign)


def _canonical(n: int, den: int, re: Numerators, im: Optional[Numerators]) -> "Operator":
    """The Operator of (re + im*i)/den, den > 0, from sums that may hold
    zeros and a common factor: zero terms dropped, one gcd pass."""
    if im:
        im = {t: v for t, v in im.items() if v}
    if im:
        re = {t: v for t, v in re.items() if v or t in im}
        for t in im:
            if t not in re:
                re[t] = 0
    else:
        im = None
        re = {t: v for t, v in re.items() if v}
    g = den
    for v in re.values():
        if g == 1:
            break
        g = gcd(g, v)
    if im and g != 1:
        for v in im.values():
            g = gcd(g, v)
    if g != 1:
        den //= g
        re = {t: v // g for t, v in re.items()}
        if im:
            im = {t: v // g for t, v in im.items()}
    return Operator._trusted(n, den, re, im)


# -- operators -------------------------------------------------------------


class Operator:
    """Element of the arity-n operator algebra in canonical integer form:
    coefficient (re[t] + im[t]*i)/den on each live term t (module docstring)."""

    __slots__ = ("n", "den", "re", "im", "_terms")

    def __init__(self, n: int, terms: Dict[TermN, Scalar] | None = None):
        if n < 1:
            raise ValueError("arity must be >= 1")
        clean: Dict[TermN, Scalar] = {}
        if terms:
            for t, c in terms.items():
                t = tuple(t)
                if len(t) != n:
                    raise ValueError("term arity mismatch")
                for s in t:
                    _check_slot(s)
                c = Scalar.of(c)
                if not c.is_zero():
                    clean[t] = c
        # the lcm of reduced denominators leaves no common factor
        den = common_den(clean.values())
        re: Numerators = {}
        im: Numerators = {}
        for t, c in clean.items():
            f = den // c.den
            re[t] = c.nre * f
            if c.nim:
                im[t] = c.nim * f
        self.n, self.den, self.re, self.im, self._terms = n, den, re, im or None, clean

    @staticmethod
    def _trusted(n: int, den: int, re: Numerators, im: Optional[Numerators]) -> "Operator":
        """An Operator on an integer form that is already canonical, taken
        as it is: the form every internal result is built in."""
        op = object.__new__(Operator)
        op.n, op.den, op.re, op.im, op._terms = n, den, re, im, None
        return op

    @property
    def terms(self) -> Dict[TermN, Scalar]:
        """{term: coefficient} as Scalars, built on first read; read-only."""
        if self._terms is None:
            self._terms = over_denominator(self.den, self.re, self.im)
        return self._terms

    def numerators(self) -> Tuple[int, Numerators, Optional[Numerators]]:
        """The integer form (den, re, im), as it is held."""
        return self.den, self.re, self.im

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(n: int) -> "Operator":
        return Operator(n)

    @staticmethod
    def from_scalar(n: int, c) -> "Operator":
        return Operator(n, {(IDENT,) * n: Scalar.of(c)})

    @staticmethod
    def one(n: int) -> "Operator":
        return Operator.from_scalar(n, 1)

    @staticmethod
    def _single(n: int, slot_index: int, slot: Slot) -> "Operator":
        if not 1 <= slot_index <= n:
            raise ValueError(f"slot index {slot_index} out of range 1..{n}")
        _check_slot(slot)
        term = tuple(slot if j == slot_index else IDENT for j in range(1, n + 1))
        return Operator._trusted(n, 1, {term: 1}, None)

    @staticmethod
    def gen_H(n: int, slot_index: int = 1) -> "Operator":
        return Operator._single(n, slot_index, ("H", 1))

    @staticmethod
    def gen_d(n: int, slot_index: int = 1) -> "Operator":
        return Operator._single(n, slot_index, ("D", 1, 0))

    @staticmethod
    def gen_int(n: int, slot_index: int = 1) -> "Operator":
        return Operator._single(n, slot_index, ("I", 1, 0))

    @staticmethod
    def gen_x(n: int, slot_index: int = 1) -> "Operator":
        # x = int * H, already canonical
        return Operator._single(n, slot_index, ("I", 1, 1))

    @staticmethod
    def gen_e(n: int, s: int, t: int, slot_index: int = 1) -> "Operator":
        return Operator._single(n, slot_index, ("E", s, t))

    # -- ring operations ----------------------------------------------

    def _check(self, other: "Operator"):
        if self.n != other.n:
            raise ValueError("arity mismatch")

    def __add__(self, other: "Operator") -> "Operator":
        return self._plus(other, False)

    def __sub__(self, other: "Operator") -> "Operator":
        return self._plus(other, True)

    def _plus(self, other: "Operator", negate: bool) -> "Operator":
        """self + other, or self - other when negate, on numerators over the
        lcm of the two denominators."""
        self._check(other)
        da, db = self.den, other.den
        den = da // gcd(da, db) * db
        fa, fb = den // da, den // db
        if negate:
            fb = -fb
        parts = []
        for x, y in ((self.re, other.re), (self.im, other.im)):
            out = {t: v * fa for t, v in x.items()} if x else {}
            for t, v in (y or {}).items():
                out[t] = out.get(t, 0) + v * fb
            parts.append(out)
        return _canonical(self.n, den, *parts)

    def __neg__(self) -> "Operator":
        im = self.im and {t: -v for t, v in self.im.items()}
        return Operator._trusted(self.n, self.den, {t: -v for t, v in self.re.items()}, im)

    def scale(self, c) -> "Operator":
        """c * self: (p + q*i)/r times (re + im*i)/den, normalized once."""
        c = Scalar.of(c)
        p, q = c.nre, c.nim
        re = {t: v * p for t, v in self.re.items()}
        im = {}
        if q:
            im = {t: v * q for t, v in self.re.items()}
        if self.im:
            for t, v in self.im.items():
                re[t] -= v * q
                im[t] = im.get(t, 0) + v * p
        return _canonical(self.n, self.den * c.den, re, im)

    def __mul__(self, other: "Operator") -> "Operator":
        """The product on integer numerators: each term pair's coefficient
        times its integer structure constants, summed per output term over
        the product of the two denominators."""
        self._check(other)
        re: Numerators = {}
        im: Numerators = {}
        _product_into(re, im, self, other, 1)
        return _canonical(self.n, self.den * other.den, re, im)

    def __pow__(self, k: int) -> "Operator":
        """self**k.  While the repeated square self^(2^j) is a single term,
        by binary powering: int_1^10000 takes 17 products instead of 9,999.
        A square of several terms is not squared again, as a product of two
        wide factors costs far more than a run of products with the base
        (x_1^64 has 64 terms; six squarings take 5.6 s where 63 products
        with the base take 0.02 s on a 2-vCPU machine), so the rest of the
        power is ((square*self)*self)*..., the base, the sparse factor, on
        the right."""
        if k < 0:
            raise ValueError("negative operator power")
        if k == 0:
            return Operator.one(self.n)
        head = None  # product of the squares taken for the low bits of k
        square, step = self, 1  # square = self^step
        while k > 1 and len(square.re) <= 1:
            if k & 1:
                head = square if head is None else head * square
            square, step, k = square * square, 2 * step, k >> 1
        # square^k = square * self^((k - 1) * step)
        for _ in range((k - 1) * step):
            square = square * self
        return square if head is None else head * square

    def commutator(self, other: "Operator") -> "Operator":
        """self*other - other*self in one pass: the first product's term
        pairs added, the second's subtracted, over one denominator."""
        self._check(other)
        re: Numerators = {}
        im: Numerators = {}
        _product_into(re, im, self, other, 1)
        _product_into(re, im, other, self, -1)
        return _canonical(self.n, self.den * other.den, re, im)

    def is_zero(self) -> bool:
        return not self.re

    def __eq__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        return self.n == other.n and self.den == other.den and self.re == other.re and self.im == other.im

    def __hash__(self):
        im = frozenset(self.im.items()) if self.im else None
        return hash((self.n, self.den, frozenset(self.re.items()), im))

    # -- structure -----------------------------------------------------

    def degree_of_term(self, term: TermN) -> Tuple[int, ...]:
        return tuple(slot_degree(s) for s in term)

    def graded_components(self) -> Dict[Tuple[int, ...], "Operator"]:
        out: Dict[Tuple[int, ...], Dict[TermN, Scalar]] = {}
        for t, c in self.terms.items():
            out.setdefault(self.degree_of_term(t), {})[t] = c
        return {d: Operator(self.n, ts) for d, ts in out.items()}

    def is_homogeneous(self) -> bool:
        return len(self.graded_components()) <= 1

    def involution(self) -> "Operator":
        out: Dict[TermN, Scalar] = {}
        for t, c in self.terms.items():
            slots = []
            for s in t:
                kind = s[0]
                if kind == "D":
                    slots.append(("I", s[1], s[2]))
                elif kind == "I":
                    slots.append(("D", s[1], s[2]))
                elif kind == "E":
                    slots.append(("E", s[2], s[1]))
                else:
                    slots.append(s)
            out[tuple(slots)] = c
        return Operator(self.n, out)

    def index_bound(self) -> int:
        """Largest d/int power or e-index appearing in any slot."""
        b = 0
        for t in self.re:
            for s in t:
                b = max(b, slot_index_bound(s))
        return b

    def max_poly_degree(self) -> int:
        """Largest power of H appearing in any slot term."""
        b = 0
        for t in self.re:
            for s in t:
                if s[0] == "H":
                    b = max(b, s[1])
                elif s[0] in ("D", "I"):
                    b = max(b, s[2])
        return b

    def max_positive_degree(self) -> int:
        b = 0
        for t in self.re:
            for s in t:
                b = max(b, slot_degree(s))
        return b

    # -- ideal calculus -----------------------------------------------

    def in_prime_ideal(self, slots: Iterable[int]) -> bool:
        """Membership in the sum of the height-1 primes indexed by `slots`."""
        chosen = set(slots)
        for j in chosen:
            if not 1 <= j <= self.n:
                raise ValueError(f"slot index {j} out of range 1..{self.n}")
        for t in self.re:
            if not any(t[j - 1][0] == "E" for j in chosen):
                return False
        return True

    # -- printing ------------------------------------------------------

    def __repr__(self):
        return f"Operator(n={self.n}, {self})"

    def __str__(self):
        return signed_sum((self.terms[t], _term_str(t)) for t in sorted(self.terms, key=term_sort_key))


def _slot_str(slot: Slot, j: int) -> str:
    kind = slot[0]
    if kind == "H":
        k = slot[1]
        if k == 0:
            return ""
        return f"H_{j}" if k == 1 else f"H_{j}^{k}"
    if kind == "D":
        i, k = slot[1], slot[2]
        d = f"d_{j}" if i == 1 else f"d_{j}^{i}"
        if k == 0:
            return d
        h = f"H_{j}" if k == 1 else f"H_{j}^{k}"
        return f"{h}*{d}"
    if kind == "I":
        i, k = slot[1], slot[2]
        it = f"int_{j}" if i == 1 else f"int_{j}^{i}"
        if k == 0:
            return it
        h = f"H_{j}" if k == 1 else f"H_{j}^{k}"
        return f"{it}*{h}"
    return f"e[{slot[1]},{slot[2]}]_{j}"


def _term_str(term: TermN) -> str:
    parts = [p for p in (_slot_str(s, j) for j, s in enumerate(term, start=1)) if p]
    return "*".join(parts) if parts else "1"


# -- expression trees ------------------------------------------------------

# AST nodes are tuples:
#   ('num', Scalar)
#   ('gen', name, slot)      name in {'H','d','int','x'}
#   ('e', s, t, slot)
#   ('add'|'sub'|'mul', left, right)
#   ('neg', child)
#   ('pow', base, k)


def from_expression(ast, n: int, field=None) -> Operator:
    """Evaluate a generator expression tree to a canonical Operator."""
    first, ops = left_spine(ast)
    if ops:
        acc = from_expression(first, n, field)
        for tag, right in ops:
            rhs = from_expression(right, n, field)
            acc = acc + rhs if tag == "add" else acc - rhs if tag == "sub" else acc * rhs
        return acc
    tag = ast[0]
    if tag == "num":
        c = Scalar.of(ast[1])
        if field is not None and not field.contains(c):
            raise ValueError(f"scalar {c} not in field {field.name}")
        return Operator.from_scalar(n, c)
    if tag == "gen":
        name, slot = ast[1], ast[2]
        maker = {
            "H": Operator.gen_H,
            "d": Operator.gen_d,
            "int": Operator.gen_int,
            "x": Operator.gen_x,
        }.get(name)
        if maker is None:
            raise ValueError(f"unknown generator {name!r}")
        return maker(n, slot)
    if tag == "e":
        return Operator.gen_e(n, ast[1], ast[2], ast[3])
    if tag == "neg":
        return -from_expression(ast[1], n, field)
    if tag == "pow":
        k = ast[2]
        if k < 0:
            raise ValueError("negative powers are not operators")
        return from_expression(ast[1], n, field) ** k
    raise ValueError(f"unknown AST node {tag!r}")


# -- principal left ideals (arity 1) ---------------------------------------


def principal_left_ideal_membership(
    a: Operator, gen: Union[str, Tuple[str, Scalar]]
) -> Tuple[bool, Optional[Operator]]:
    """Decide membership of a in the left ideal generated by d or by H-lambda.

    Returns (member, witness) with witness*gen == a when member.
    """
    if a.n != 1:
        raise ValueError("principal left ideal calculus is arity-1 only")
    if gen == "d":
        g = Operator.gen_d(1)
        w = a * Operator.gen_int(1)
        if w * g == a:
            return True, w
        return False, None
    if isinstance(gen, tuple) and gen[0] == "H":
        lam = Scalar.of(gen[1])
        witness_terms: Dict[TermN, Scalar] = {}
        for deg, comp in a.graded_components().items():
            d = deg[0]
            poly = UniPoly()
            for term, c in comp.terms.items():
                slot = term[0]
                if slot[0] == "E":
                    s, t = slot[1], slot[2]
                    denom = Scalar(t + 1) - lam
                    if denom.is_zero():
                        return False, None
                    witness_terms[term] = c / denom
                elif slot[0] == "H":
                    poly = poly + UniPoly.monomial(slot[1], c)
                else:
                    poly = poly + UniPoly.monomial(slot[2], c)
            if poly.is_zero():
                continue
            # right factor H-lam commuted past d^i becomes H+i-lam
            shift = -d if d < 0 else 0
            divisor = UniPoly.linear_shifted(Scalar(shift) - lam)
            q, r = poly.divmod(divisor)
            if not r.is_zero():
                return False, None
            for k, c in q.coeffs.items():
                if d > 0:
                    witness_terms[(("I", d, k),)] = c
                elif d == 0:
                    witness_terms[(("H", k),)] = c
                else:
                    witness_terms[(("D", -d, k),)] = c
        w = Operator(1, witness_terms)
        g = Operator.gen_H(1) - Operator.from_scalar(1, lam)
        if w * g != a:
            raise AssertionError("witness verification failed")
        return True, w
    raise ValueError(f"unsupported principal generator {gen!r}")
