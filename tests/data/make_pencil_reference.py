"""Write pencil_beta13_n8.json: the m = 1 pencil blocks at beta = 13, l = 2 sqrt(2),
N = 8 and the default Prandtl number and viscosity ratio, from 40-digit mpmath.

Each z-integral J_w(i, j) = int_0^1 exp((w - 1) beta z) exp(i pi j z) sin(i pi z) dz is
an mp.quad; then I(w, d)[i, j] = 2 Im(c_j^d J_w(i, j)) with c_j = -beta/2 + i pi j,
since s_j^(d)(z) exp(w beta z) s_i(z) = 2 Im(c_j^d exp(c_j z)) sin(i pi z) exp((w - 1/2)
beta z). The blocks are rounded to double once, at the end.

Run from the repository root: python tests/data/make_pencil_reference.py (about 10 s).
"""

import json
import pathlib
import sys

import mpmath as mp
import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

from anelor.params import PhysicalParams  # noqa: E402
from reference_pencil import FILE_KEYS, reference_blocks  # noqa: E402

BETA, N = 13.0, 8


def main():
    mp.mp.dps = 40
    params = PhysicalParams(beta=BETA)
    beta = mp.mpf(BETA)
    modes = range(1, N + 1)
    c = [-beta / 2 + 1j * mp.pi * j for j in modes]
    J = {w: [[mp.quad(lambda z: mp.exp((w - 1) * beta * z + 1j * mp.pi * j * z)
                      * mp.sin(i * mp.pi * z), [0, 0.5, 1])
              for j in modes] for i in modes] for w in range(3)}

    def integral(w, d):
        return np.array([[2 * mp.im(c[j] ** d * J[w][i][j]) for j in range(N)]
                         for i in range(N)], dtype=object)

    blocks = reference_blocks(params, integral, pi=mp.pi)
    document = {
        "params": {"beta": BETA, "length": params.length, "prandtl": params.prandtl,
                   "gamma": params.gamma, "n_modes": N, "m": 1},
        "digits": mp.mp.dps,
        "blocks": {key: [[float(v) for v in row] for row in blocks[name]]
                   for name, key in FILE_KEYS.items()},
    }
    # one matrix row per line
    text = json.dumps(document, indent=1)
    for name, rows in document["blocks"].items():
        text = text.replace(json.dumps(rows, indent=1).replace("\n", "\n  "),
                            "[\n   " + ",\n   ".join(map(json.dumps, rows)) + "\n  ]")
    (HERE / "pencil_beta13_n8.json").write_text(text + "\n")


if __name__ == "__main__":
    main()
