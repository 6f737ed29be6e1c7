"""Quasi-polynomial growth of ordinary-power colengths.

For a saturated ideal the colength sequence h0(n) eventually agrees with a
quadratic on each residue class mod the torsion order r, and the shared
leading coefficient equals e(primary part) / (2 r^2).  This script shows the
whole chain on one instance.
"""

from fractions import Fraction

from ghk import (
    a_singularity,
    eghk,
    epsilon_estimate,
    fit_quasi_polynomial,
    h0_powers,
    newton_multiplicity,
    torsion_factorization,
)

inst = a_singularity(5, 2)
ideal = inst.ideal
print("instance:", inst.label)

torsion = torsion_factorization(ideal)
print("torsion order:", torsion.order, "shift:", torsion.shift)
print("primary part corners:", list(torsion.primary.stair.corners))

e_primary = newton_multiplicity(torsion.primary)
predicted = Fraction(e_primary, 2 * torsion.order**2)
print("newton multiplicity of primary part:", e_primary, "-> predicted leading", predicted)

# period-5 fitting wants a longer run than the default estimate window;
# values[m] is h0(I^(m+1)), so the fit below is in m = n - 1 (an open item in ROADMAP.md)
values = h0_powers(ideal, 40)
print("h0 sequence from n = 1:", values[:12], "...")

fit = fit_quasi_polynomial(values, torsion.order)
print("stabilizes from m = n - 1 =", fit.onset)
for cls in fit.classes:
    print(f"  class m = {cls.residue} mod {fit.period}: coeffs {[str(c) for c in cls.coeffs]} from m >= {cls.onset}")
    assert cls.coeffs[0] == predicted

# every fitted class must reproduce the tail exactly
for m in range(fit.onset, len(values)):
    assert fit.evaluate(m) == values[m]

estimate = epsilon_estimate(ideal, 30)
print("normalized growth estimate h0(30)/900 =", estimate, "<= multiplicity", eghk(ideal))
assert eghk(ideal) >= estimate - Fraction(2, 30)
