"""Forward scattering walkthrough.

Solves the volume integral equation for a plane wave hitting a smooth
bump of refractive index, checks the solver residual, compares with the
Born approximation in the weak-contrast regime, and evaluates the far
field pattern.
"""

import numpy as np

from emiscat.forward import PlaneWave, ScatteringSolver
from emiscat.fourier import BumpProfile, CubeGrid, make_test_index

KAPPA = 1.0

print("== Forward scattering by a smooth bump ==")
grid = CubeGrid(np.pi, 24)
profile = BumpProfile(centers=[(0.3, -0.2, 0.1)], amplitudes=[0.2],
                      widths=[1.5])
medium = make_test_index(profile, grid, b=0.7)
solver = ScatteringSolver(medium, KAPPA)
wave = PlaneWave(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), KAPPA)

total = solver.solve(wave)
print(f"grid N = {grid.n}, contrast amplitude 0.2")
print(f"integral-equation residual: {solver.residual(total, wave):.2e}")

print("\nWeak-contrast (Born) regime: deviation shrinks linearly with the")
print("contrast amplitude:")
for amp in (0.04, 0.02, 0.01):
    weak = make_test_index(
        BumpProfile(centers=[(0.3, -0.2, 0.1)], amplitudes=[amp],
                    widths=[1.5]), grid, b=0.7)
    s = ScatteringSolver(weak, KAPPA)
    full = s.solve(wave)
    born = s.born_field(wave)
    dev = np.linalg.norm(full - born) \
        / np.linalg.norm(born - wave.electric(s.pts))
    print(f"  amplitude {amp:5.2f}: |full - Born| / |Born scattered| = {dev:.3f}")

print("\nFar-field pattern along a few directions:")
dirs = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                 [0.0, 0.0, -1.0]])
pattern = solver.far_pattern(total, dirs)
for d, row in zip(dirs, pattern):
    print(f"  xhat = {d}: |E_inf| = {np.linalg.norm(row):.4e}")
print("forward scattering demo done")
