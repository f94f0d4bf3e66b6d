"""Variational source condition (VSC) diagnostics.

Shows the noise-driven parameter schedule, the exact high-frequency tail
inequality, and the zero-violation fit of the VSC constant A over a
family of media around a reference index.
"""

import numpy as np

from emiscat.forward import SphereGrid, near_field_operator
from emiscat.fourier import BumpProfile, CubeGrid, SobolevParams, make_test_index
from emiscat.vsc import data_diff_norm, highfreq_tail, schedule, vsc_check

KAPPA = 1.0
R = 1.2 * np.pi
M, S = 4.0, 6.0

print("== Noise-driven schedule 9Rt = ln(3 + delta^-2) ==")
for delta in (1e-2, 1e-4, 1e-8):
    sched = schedule(delta, R, M, S)
    print(f"  delta = {delta:.0e}: t = {sched.t:.4f}, rho = {sched.rho:.4f}")

grid = CubeGrid(np.pi, 16)
base = make_test_index(
    BumpProfile(centers=[(0.3, -0.2, 0.1)], amplitudes=[0.2], widths=[1.5]),
    grid, b=0.7)

print("\n== High-frequency tail inequality (exact by construction) ==")
for rho in (2.0, 4.0, 8.0):
    tail, bound = highfreq_tail(base, rho, M, S)
    print(f"  rho = {rho:4.1f}: tail {tail:.3e} <= bound {bound:.3e} "
          f"({'ok' if tail <= bound * (1 + 1e-12) else 'VIOLATED'})")

print("\n== VSC constant fit over a 4-member family ==")
sphere = SphereGrid.build(R, 1, 3)
w_base = near_field_operator(base, KAPPA, sphere)
rng = np.random.default_rng(0)
family, misfits = [], []
for _ in range(4):
    prof = BumpProfile(
        centers=((0.3, -0.2, 0.1), tuple(rng.uniform(-0.5, 0.5, 3))),
        amplitudes=(0.2, 0.02 * rng.uniform(0.5, 1.0)),
        widths=(1.5, rng.uniform(1.0, 1.6)))
    member = make_test_index(prof, grid, b=0.7)
    family.append(member)
    misfits.append(data_diff_norm(
        near_field_operator(member, KAPPA, sphere), w_base))
nu = SobolevParams(M, S).nu
report = vsc_check(base, family, misfits, M, nu, beta=0.5)
print(f"fitted A = {report.A:.4e}, nu = {nu:.3f}, "
      f"violations = {report.violations()}")
for s in report.samples:
    branch = "cauchy-schwarz" if s.cauchy_schwarz_branch else "index-function"
    print(f"  member {s.member}: margin {s.margin:+.3e} ({branch})")
print("vsc demo done")
