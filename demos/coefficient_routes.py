"""Three routes to the reduced-system coefficients e1..e7.

The quadrature oracle projects the governing equations term by term with no
algebra beyond the integrands themselves; the closed forms evaluate the
hand-derived expressions; the published route is the closed-form terms with
the two printed overrides. Oracle and closed forms agree to roundoff
everywhere. The published column differs in two terms, which this report
quantifies rather than hides: the nonlinear AC term (a factor-of-4 scale in
its printed prefactor at beta = 0), and the gamma term of e1, printed with
4 pi^2 / l where the projection gives 4 pi^2 / l^2.
"""

from anelor.params import PhysicalParams
from anelor.projection import discrepancy_report

params = PhysicalParams(beta=0.5, prandtl=1.0, rayleigh=100.0)
print(f"beta = {params.beta}, Pr = {params.prandtl}, Ra = {params.rayleigh}, "
      f"gamma = {params.gamma:.4f}, l = {params.length:.4f}\n")

rows = discrepancy_report(params)
width = max(len(row.term) for row in rows)
print(f"{'term':<{width}}  {'oracle':>14}  {'closed form':>14}  "
      f"{'published':>14}  {'dev(closed)':>12}  {'dev(published)':>14}")
for row in rows:
    print(f"{row.term:<{width}}  {row.oracle:14.6g}  {row.closed_form:14.6g}  "
          f"{row.published:14.6g}  {row.rel_dev_closed_form:12.2e}  "
          f"{row.rel_dev_published:14.2e}")

worst = max(r.rel_dev_closed_form for r in rows if r.term.startswith("e"))
print(f"\nmax oracle vs closed-form deviation over e1..e7: {worst:.2e}")
print("the published column's nonlinear-tau-111 row carries the printed "
      "factor-of-4 discrepancy, and its gamma-term row the printed 4 pi^2 / l")
