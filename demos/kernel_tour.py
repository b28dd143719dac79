#!/usr/bin/env python3
"""A guided tour of the binary entropy kernel.

Walks the three primitives everything else is built on: the entropy H(x),
the rate f(x) = H(x)/x, and the rate's numerical inverse g.  Along the way
it demonstrates the two identities that make the golden threshold special:

  b^2 = 1 - b   at b = (sqrt(5)-1)/2, so
  H(b^2) = H(b) exactly, by the symmetry of H about one half.

That single coincidence pins the constant (3-sqrt(5))/2 that the rest of
the package revolves around.
"""

from entroset.kernel import (
    FREQUENCY_BOUND,
    GOLDEN_THRESHOLD,
    KERNEL_TOL,
    binary_entropy,
    entropy_rate,
    entropy_rate_deriv,
    inverse_entropy_rate,
)


def section(title: str) -> None:
    print()
    print(title)
    print("-" * len(title))


def main() -> None:
    section("Anchors of H")
    for x in (0.0, 0.25, 0.5, GOLDEN_THRESHOLD, FREQUENCY_BOUND, 1.0):
        print(f"  H({x:.16g}) = {binary_entropy(x):.16g}")
    print("  symmetry: H(0.25) == H(0.75):",
          binary_entropy(0.25) == binary_entropy(0.75))

    section("The golden identity")
    b = GOLDEN_THRESHOLD
    print(f"  b           = {b:.17g}")
    print(f"  b^2         = {b * b:.17g}")
    print(f"  1 - b       = {1.0 - b:.17g}")
    print(f"  H(1-b)-H(b) = {binary_entropy(1.0 - b) - binary_entropy(b):.3g}")
    print("  The frequency bound is this complement:", FREQUENCY_BOUND)

    section("The rate f(x) = H(x)/x is strictly decreasing")
    for x in (0.01, 0.1, 0.3, 0.5, 0.8, 1.0):
        print(f"  f({x:4.2f}) = {entropy_rate(x):10.6f}"
              f"   f'({x:4.2f}) = {entropy_rate_deriv(x) if 0 < x < 1 else float('nan'):10.4f}")
    print("  f blows up like log2(1/x) near 0 and hits 0 at x = 1,")
    print("  so it maps (0, 1] onto [0, infinity) and has an inverse.")

    section("Inverting the rate")
    for y in (0.5, 1.0, 2.0, 5.0, 20.0, 45.0):
        x = inverse_entropy_rate(y)
        resid = abs(entropy_rate(x) - y)
        print(f"  g({y:5.1f}) = {x:.12e}   residual {resid:.2e} "
              f"(contract {KERNEL_TOL:.0e} * max(1, y))")
    print("  g(2) is one half, since f(1/2) = H(1/2)/(1/2) = 2:")
    print(f"  g(2.0) = {inverse_entropy_rate(2.0)!r}")

    section("Why the inverse starts from a table")
    y = 40.0
    x = inverse_entropy_rate(y)
    print(f"  For y = {y} the root sits at x ~ {x:.3e}; an arithmetic")
    print("  midpoint from [0, 1] would need ~130 halvings to get there,")
    print("  while a guess read off a table of logit x against log y is")
    print("  good to about 1e-5, and two Newton steps finish the job.")
    print(f"  round trip: f(g({y})) - {y} = {entropy_rate(x) - y:.3e}")


if __name__ == "__main__":
    main()
