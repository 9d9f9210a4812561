"""Polynomial expression parsing and formatting for the CLI.

Grammar (whitespace ignored, unary minus only in leading position of a term
sequence):

    expr  := term (('+'|'-') term)*
    term  := coeff | coeff '*' mono | mono
    mono  := 'x' ('^' uint)?
    coeff := uint
"""

from __future__ import annotations

from .errors import PolyParseError
from .finite_field import FieldCtx, FieldElement, _undigits
from .polynomial import Poly


def parse_poly(text: str, ctx: FieldCtx) -> Poly:
    """Parse an expression into a Poly over ctx, coefficients reduced mod p."""
    coeffs = {}
    pos = 0
    n = len(text)

    def skip_ws(i):
        while i < n and text[i].isspace():
            i += 1
        return i

    def read_uint(i):
        j = i
        while j < n and text[j].isdigit():
            j += 1
        if j == i:
            raise PolyParseError("expected a number", i)
        return int(text[i:j]), j

    pos = skip_ws(pos)
    if pos == n:
        raise PolyParseError("empty expression", pos)
    sign = 1
    if text[pos] in "+-":
        if text[pos] == "-":
            sign = -1
        pos = skip_ws(pos + 1)

    first = True
    while True:
        if not first:
            pos = skip_ws(pos)
            if pos == n:
                break
            if text[pos] not in "+-":
                raise PolyParseError(f"expected '+' or '-', got {text[pos]!r}", pos)
            sign = 1 if text[pos] == "+" else -1
            pos = skip_ws(pos + 1)
        first = False

        coeff = 1
        exp = 0
        seen_coeff = False
        if pos < n and text[pos].isdigit():
            coeff, pos = read_uint(pos)
            seen_coeff = True
            pos = skip_ws(pos)
            if pos < n and text[pos] == "*":
                pos = skip_ws(pos + 1)
                if pos == n or text[pos] != "x":
                    raise PolyParseError("expected 'x' after '*'", pos)
        if pos < n and text[pos] == "x":
            pos += 1
            exp = 1
            if pos < n and text[pos] == "^":
                pos += 1
                if pos < n and text[pos] == "^":
                    raise PolyParseError("doubled '^'", pos)
                exp, pos = read_uint(pos)
        elif not seen_coeff:
            found = text[pos] if pos < n else "end of input"
            raise PolyParseError(f"expected term, got {found!r}", pos)
        coeffs[exp] = coeffs.get(exp, 0) + sign * coeff
        pos = skip_ws(pos)
        if pos == n:
            break

    degree = max(coeffs) if coeffs else 0
    vec = [coeffs.get(i, 0) for i in range(degree + 1)]
    return Poly(ctx, vec)


def format_poly(poly: Poly, var: str = "x") -> str:
    """Grammar-compatible text form; reparsing yields identical coefficients."""
    ctx = poly.ctx
    if poly.is_zero:
        return "0"
    pieces = []
    for i in range(poly.degree, -1, -1):
        raw = poly.raw_coeffs[i]
        if raw == 0:
            continue
        if raw < ctx.p:  # a prime-subfield constant: keep the grammar-compatible int form
            cstr = str(raw)
        else:
            cstr = f"({FieldElement(ctx, raw)!r})"
        is_one = raw == 1
        if i == 0:
            pieces.append(cstr)
        elif i == 1:
            pieces.append(var if is_one else f"{cstr}*{var}")
        else:
            mono = f"{var}^{i}"
            pieces.append(mono if is_one else f"{cstr}*{mono}")
    return "+".join(pieces)


def parse_element(text: str, ctx: FieldCtx) -> FieldElement:
    """Parse a field element: an integer, or 'a0:a1:...' for extension fields."""
    text = text.strip()
    try:
        parts = [int(x) for x in text.split(":")]
    except ValueError:
        raise PolyParseError(f"{text!r} is not an integer or an a0:a1:... tuple", 0) from None
    if ":" not in text:
        return ctx(parts[0])
    if len(parts) > ctx.l:
        raise PolyParseError(f"too many components for F_{ctx.p}^{ctx.l}", 0)
    return FieldElement(ctx, _undigits(ctx.p, [c % ctx.p for c in parts]))


def parse_shifts(text: str, ctx: FieldCtx):
    """Parse a comma-separated shift list; entries must be distinct."""
    items = [parse_element(piece, ctx) for piece in text.split(",") if piece.strip()]
    if len({e.raw for e in items}) != len(items):
        raise PolyParseError("shifts must be distinct", 0)
    return items
