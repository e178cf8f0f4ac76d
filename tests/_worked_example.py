"""Render the reference walk-through of the subset encoding to plain text.

The output is compared byte for byte against golden/worked_example.txt; it
covers the incidence-vector map and the factored characteristic-polynomial
arithmetic for a fixed intersection, union and difference instance at n=6.
"""

from quorum_algebra.algebra import BlockLexOrder, Polynomial, Variable, format_polynomial
from quorum_algebra.encoding import CharPoly, ProcessSubset, bool_product, char_poly

ORDER = BlockLexOrder(("y",))


def fmt(f: Polynomial) -> str:
    return format_polynomial(f, ORDER)


def cofactor_expanded(c: CharPoly) -> Polynomial:
    n = c.n
    one = Polynomial.one(n)
    outside = ProcessSubset(c.cofactor_mask(), n).indices
    return bool_product(
        (Polynomial.variable(Variable(c.block, i), n) + one for i in outside), n
    )


def cofactor_factored(c: CharPoly) -> str:
    outside = ProcessSubset(c.cofactor_mask(), c.n).indices
    return "*".join(f"({c.block}{i} + 1)" for i in outside)


def section(title: str, result: CharPoly, expand_cofactor: bool) -> list[str]:
    nu = cofactor_expanded(result)
    shown = fmt(nu) if expand_cofactor else cofactor_factored(result)
    return [
        f"{title}:",
        f"  mu = {fmt(result.trailing_monomial())}",
        f"  nu = {shown}",
        f"  point of value 1: {result.support.vector_str()}",
        f"  result: {result.support}",
    ]


def render() -> str:
    lines = ["incidence vector map at n=5:"]
    example = ProcessSubset.from_indices([1, 3, 4], 5)
    lines.append(f"  {example} <-> {example.vector_str()}")
    lines.append("")

    n = 6
    q = char_poly(ProcessSubset.from_indices([2, 3, 4, 6], n), "y")
    r = char_poly(ProcessSubset.from_indices([3, 4, 5], n), "y")
    f = char_poly(ProcessSubset.from_indices([4, 5], n), "y")
    lines.append("set instance at n=6:")
    lines.append(f"  Q = {q.support}")
    lines.append(f"  R = {r.support}")
    lines.append(f"  F = {f.support}")
    lines.append("")
    lines.append(f"xi_Q = {fmt(q.expand())}")
    lines.append(f"TM(xi_Q) = {fmt(q.trailing_monomial())}")
    lines.append(f"TM(xi_R) = {fmt(r.trailing_monomial())}")
    lines.append("")

    lines.extend(section("intersection Q meet R", q.intersect(r), True))
    lines.append("")
    lines.extend(section("union Q join R", q.union(r), True))
    lines.append("")
    lines.extend(
        section("difference (Q meet R) minus F", q.difference_within(r, f), False)
    )
    lines.append("")
    return "\n".join(lines)


if __name__ == "__main__":
    print(render(), end="")
