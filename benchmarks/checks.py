"""Correctness references for the benchmark's outputs, computed apart from meanforce.

Nothing here imports meanforce.  Every reference is built from the plain
parameters of ``workloads.params`` with numpy and scipy: scipy.integrate.quad
for the imaginary-time coherence integrals, scipy.special.dawsn for the
high-temperature closed form, the series formulas written out again, and the
benchmark's own system-plus-modes Hamiltonian with scipy.linalg.eigh for the
oracle.  Properties the method must have (detailed balance, unit trace,
Hermiticity, positivity, convergence with the Fock cutoff, the first-order
state beating the zeroth-order one) are checked on the outputs directly.

Tolerances and where they come from:

- ``QUAD_TOL`` 1e-9 relative: meanforce's quadrature runs at rel_tol 1e-10
  (``QuadratureSettings``); the scipy reference is asked for 1e-12, so a
  tenfold margin on the program's own claim.
- ``ME_TOL`` 1e-6 relative: the master-equation route splines G(tau) to a
  claimed 1e-8 of max|G| (``comparator._SPLINE_TOL``); the integrand
  exp(-s G) is integrated until s Re G reaches the tail cutoff 40, so a 1e-8
  relative error in G can move the phase by up to 40 * 1e-8 = 4e-7.
- ``DAWSON_TOL`` 1e-9 relative: meanforce's Dawson function claims 1e-12
  absolute; the coherence multiplies it by O(1e2) prefactors at most.
- ``ARITH_TOL`` 1e-11 relative: closed formulas evaluated twice in double
  precision, in a different order.
- ``DENSE_TOL`` 1e-10 absolute: two dense eigensolvers on the same matrix.
- unit trace 1e-10, Hermiticity 1e-12 and PSD -1e-9 are meanforce's own
  ``DensityMatrix`` contract.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, linalg, special

QUAD_TOL = 1e-9
ME_TOL = 1e-6
DAWSON_TOL = 1e-9
ARITH_TOL = 1e-11
DENSE_TOL = 1e-10
TRACE_TOL = 1e-10
HERM_TOL = 1e-12
PSD_TOL = -1e-9


def check(workload: str, p: dict, outputs: list) -> list[dict]:
    """One row per check: worst measured value over the points, and its tolerance."""
    worst: dict = {}
    for name, measured, tol in _CHECKS[workload](p, outputs):
        if name not in worst or measured > worst[name][0]:
            worst[name] = (float(measured), tol)
    return [
        {"check": name, "measured": m, "tolerance": tol, "ok": bool(m < tol)}
        for name, (m, tol) in worst.items()
    ]


def _rel(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b)) / max(float(np.max(np.abs(b))), 1e-300))


def _cm(pair) -> np.ndarray:
    return np.array(pair[0]) + 1j * np.array(pair[1])


def _trace_distance(a, b) -> float:
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


# --------------------------------------------------------------------------
# Kernel integrals, written from their definitions
# --------------------------------------------------------------------------

def _r(w: float, u: float, beta: float) -> float:
    """(1 - e^{-wu})(1 - e^{-w(beta-u)}) / (1 - e^{-w beta})."""
    return math.expm1(-w * u) * math.expm1(-w * (beta - u)) / -math.expm1(-w * beta)


def _k_lorentz_drude(q: float, wc: float, beta: float, u: float) -> float:
    """K(u) = int_0^inf J(w)/w^2 r(w, u) dw for J = (2Q/pi) wc w / (wc^2 + w^2)."""
    if u <= 0.0 or u >= beta:
        return 0.0

    def integrand(w):  # quad's Gauss-Kronrod nodes never touch w = 0
        return (2.0 * q / math.pi) * wc / (w * (wc * wc + w * w)) * _r(w, u, beta)

    # Split at the cutoff and at the thermal scale so quad sees both shapes.
    knots = sorted({0.0, wc, 1.0 / u, 1.0 / (beta - u)})
    total = sum(
        integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        for lo, hi in zip(knots[:-1], knots[1:])
    )
    return total + integrate.quad(integrand, knots[-1], math.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]


def _k_modes(modes, beta: float, u: float) -> float:
    return sum(g * g / (w * w) * _r(w, u, beta) for g, w in modes)


def _coherence(kernel, beta, p, h_off, gap, s) -> float:
    """-1/2 (p_l h f_{l,l'} + h p_{l'} f_{l',l}) for real h, as one u-integral.

    f_{l,l'} = int_0^beta e^{u gap} e^{-s K(u)} du with gap = h_l - h_{l'}.
    """
    def integrand(u):
        return math.exp(-s * kernel(u)) * (p[0] * math.exp(u * gap) + p[1] * math.exp(-u * gap))

    val = integrate.quad(integrand, 0.0, beta, epsabs=0.0, epsrel=1e-12, limit=200)[0]
    return -0.5 * h_off * val


def _dawson_f(beta, q, lam, a_abs, gap) -> float:
    root = math.sqrt(beta / q)
    x1 = root / (2.0 * lam * a_abs) * (lam**2 * a_abs**2 * q - gap)
    x2 = root / (2.0 * lam * a_abs) * (lam**2 * a_abs**2 * q + gap)
    return root / (lam * a_abs) * (special.dawsn(x1) + math.exp(beta * gap) * special.dawsn(x2))


def _boltzmann(energies, beta) -> np.ndarray:
    w = np.exp(-beta * (np.asarray(energies) - np.min(energies)))
    return w / w.sum()


# --------------------------------------------------------------------------
# me-lambda-sweep: spin-boson, A = sigma_z, basis (|+>, |->)
# --------------------------------------------------------------------------

def _spin_c_eg(p_plus, c_ss, eps, delta) -> float:
    """<e|rho|g> for the real 2x2 state, H_S eigenvectors in meanforce's phase."""
    w_s = math.hypot(eps, delta)
    norm = math.sqrt(2.0 * w_s * (w_s + eps))
    e = np.array([w_s + eps, delta]) / norm
    g = np.array([-delta, w_s + eps]) / norm
    rho = np.array([[p_plus, c_ss], [c_ss, 1.0 - p_plus]])
    return float(e @ rho @ g)


_SPIN_TOL = {"high-t": DAWSON_TOL, "series": ARITH_TOL, "me": ME_TOL}


def _check_me_lambda_sweep(p, outputs):
    (csv_text,) = outputs
    lines = csv_text.strip().split("\n")
    header = lines[0].split(",")
    col = {name: i for i, name in enumerate(header)}
    eps, delta, beta, wc = 1.0, p["delta"], p["beta"], p["omega_c"]
    pops = _boltzmann([eps / 2.0, -eps / 2.0], beta)
    grid = np.linspace(p["lo"], p["hi"], p["points"])
    yield "grid", _rel([float(line.split(",")[0]) for line in lines[1:]], grid), ARITH_TOL
    for line in lines[1:]:
        row = line.split(",")
        l2q = float(row[0])
        lam = math.sqrt(l2q)  # built-in families carry Q = 1
        s = lam**2 * 4.0  # (a_+ - a_-)^2 = 4
        ref = {
            "high-t": -(delta / 4.0) * (
                pops[0] * _dawson_f(beta, 1.0, lam, 2.0, eps)
                + pops[1] * _dawson_f(beta, 1.0, lam, 2.0, -eps)
            ),
            "series": -(delta / 4.0) * sum(
                pk * ((1.0 + math.exp(g * beta)) / (l2q * 4.0) + g * (1.0 - math.exp(g * beta)) / (l2q * 4.0) ** 2)
                for pk, g in zip(pops, (eps, -eps))
            ),
            "me": _coherence(
                lambda u: _k_lorentz_drude(1.0, wc, beta, u), beta, pops, delta / 2.0, eps, s
            ),
        }
        for m in p["methods"]:
            prefix = m.replace("-", "_")
            cells = [row[col[f"{prefix}_{c}"]] for c in ("c_ss_real", "c_ss_imag", "c_eg_real", "p_plus")]
            if "NA" in cells:
                continue  # counted as failed by the workload
            c_re, c_im, c_eg, p_plus = map(float, cells)
            yield f"{m} c_ss vs reference", abs(c_re / ref[m] - 1.0), _SPIN_TOL[m]
            yield f"{m} c_ss imaginary part", abs(c_im / ref[m]), _SPIN_TOL[m]
            yield f"{m} p_plus vs Boltzmann", abs(p_plus - pops[0]), ARITH_TOL
            yield f"{m} c_eg vs its basis change", abs(c_eg - _spin_c_eg(p_plus, c_re, eps, delta)), ARITH_TOL
        # Flags as steady_state's diagnostics define them (RegimeThresholds).
        flags = [int(row[col[k]]) for k in ("flag_strong_coupling", "flag_series", "flag_high_t")]
        want = [int(l2q / (eps / 2.0) >= 1.0), int(l2q * beta >= 3.0), int(wc * beta <= 0.5)]
        yield "regime flags", float(flags != want), 0.5


# --------------------------------------------------------------------------
# multilevel-beta-sweep: dim 4, A diagonal and ascending, Natural convention
# --------------------------------------------------------------------------

def _assemble(h, pops, f) -> np.ndarray:
    """rho_{l,l'} = -1/2 (p_l h_{l,l'} f_{l,l'} + conj(h_{l',l}) p_{l'} f_{l',l})."""
    rho = -0.5 * (pops[:, None] * h * f + np.conj(h.T) * (pops[None, :] * f.T))
    np.fill_diagonal(rho, pops)
    return rho


def _check_multilevel_beta_sweep(p, outputs):
    a = np.array(p["a"])
    h = np.array(p["h_re"]) + 1j * np.array(p["h_im"])
    lam = math.sqrt(p["lambda2q"])
    q = 1.0
    h_diag = np.real(np.diag(h))
    energies = h_diag - lam**2 * a**2 * q  # Natural convention
    dim = len(a)
    pairs = [(l, l2) for l in range(dim) for l2 in range(dim) if l != l2]
    for beta, point in zip(p["betas"], outputs):
        pops = _boltzmann(energies, beta)
        f_ref = {"high-t": np.zeros((dim, dim)), "series": np.zeros((dim, dim))}
        for l, l2 in pairs:
            gap_r = energies[l] - energies[l2]
            f_ref["high-t"][l, l2] = _dawson_f(beta, q, lam, abs(a[l2] - a[l]), gap_r)
            e = math.exp(gap_r * beta)
            d = a[l] - a[l2]
            f_ref["series"][l, l2] = (1.0 / a[l] - e / a[l2]) / (2.0 * lam**2 * q * d) + (
                (h_diag[l] - h_diag[l2]) / (4.0 * lam**4 * q**2 * d**2)
            ) * (1.0 / a[l] ** 2 - e / a[l2] ** 2)
        for m in ("exact", "high-t", "series", "me"):
            if point[m] is None:
                continue
            yield f"{m} populations vs Boltzmann", _rel(point[m]["p"], pops), ARITH_TOL
        for m, tol in (("high-t", DAWSON_TOL), ("series", ARITH_TOL)):
            if point[m] is None:
                continue
            yield f"{m} f vs reference", _rel(point[m]["f"], f_ref[m]), tol
            yield f"{m} state vs assembled reference", _rel(
                _cm(point[m]["state"]), _assemble(h, pops, f_ref[m])
            ), tol
        for m in ("exact", "high-t", "series"):
            if point[m] is None:
                continue
            f = np.array(point[m]["f"])
            pf = pops[:, None] * f
            balance = max(abs(pf[l, l2] - pf[l2, l]) / abs(pf[l, l2]) for l, l2 in pairs)
            yield f"{m} detailed balance p_l f_ll' = p_l' f_l'l", balance, QUAD_TOL
        if point["exact"] is not None and point["me"] is not None:
            rho_ex, rho_me = _cm(point["exact"]["state"]), _cm(point["me"]["state"])
            coh = rho_ex - np.diag(np.diag(rho_ex))
            yield "exact (Natural) vs me state", float(
                np.max(np.abs(rho_ex - rho_me)) / np.max(np.abs(coh))
            ), ME_TOL


# --------------------------------------------------------------------------
# oracle-crosscheck: spin-boson with three discrete Lorentz-Drude modes
# --------------------------------------------------------------------------

def _modes(p) -> list:
    n, w_max, wc = p["n_modes"], p["omega_max"], p["omega_c"]
    out = []
    for k in range(1, n + 1):
        w = (k - 0.5) * w_max / n
        j = (2.0 / math.pi) * wc * w / (wc * wc + w * w)
        out.append((math.sqrt(j * w_max / n), w))
    return out


def reduced_state(p, modes, lam: float, cutoff: int) -> np.ndarray:
    """Tr_B e^{-beta H} / Z for the spin-boson plus modes, from one eigh."""
    d1 = cutoff + 1
    ladder = np.diag(np.sqrt(np.arange(1.0, d1)), 1)
    x1, n1 = ladder + ladder.T, np.diag(np.arange(d1, dtype=float))
    db = d1 ** len(modes)
    h_b = np.zeros((db, db))
    b = np.zeros((db, db))
    for k, (g, w) in enumerate(modes):
        left, right = np.eye(d1**k), np.eye(d1 ** (len(modes) - k - 1))
        h_b += w * np.kron(np.kron(left, n1), right)
        b += g * np.kron(np.kron(left, x1), right)
    eps, delta = 1.0, p["delta"]
    h_s = np.array([[eps / 2.0, delta / 2.0], [delta / 2.0, -eps / 2.0]])
    sz = np.diag([1.0, -1.0])
    # The Renormalized counterterm lam^2 Q sigma_z^2 is a multiple of the
    # identity here and drops out of the normalized state.
    h = np.kron(h_s, np.eye(db)) + lam * np.kron(sz, b) + np.kron(np.eye(2), h_b)
    w, v = linalg.eigh(h)
    weights = np.exp(-p["beta"] * (w - w[0]))
    v = v.reshape(2, db, -1)
    rho = np.einsum("ibn,jbn,n->ij", v, v, weights)
    return rho / np.trace(rho)


def _check_oracle_crosscheck(p, outputs):
    modes = _modes(p)
    q_disc = sum(g * g / w for g, w in modes)
    eps, delta, beta = 1.0, p["delta"], p["beta"]
    pops = _boltzmann([eps / 2.0, -eps / 2.0], beta)
    for i, (l2q, point) in enumerate(zip(p["lambda2qs"], outputs)):
        lam = math.sqrt(l2q / q_disc)
        if point["zeroth"] is not None:
            yield "zeroth state vs Boltzmann", _rel(_cm(point["zeroth"]["state"]), np.diag(pops)), ARITH_TOL
        if point["exact"] is not None:
            c_ref = _coherence(
                lambda u: _k_modes(modes, beta, u), beta, pops, delta / 2.0, eps, 4.0 * lam**2
            )
            yield "exact c_ss vs reference", abs(_cm(point["exact"]["state"])[0, 1] / c_ref - 1.0), QUAD_TOL
        if point["oracle"] is None:
            continue
        rho = _cm(point["oracle"]["state"])
        yield "oracle unit trace", abs(np.trace(rho) - 1.0), TRACE_TOL
        yield "oracle Hermiticity", float(np.max(np.abs(rho - rho.conj().T))), HERM_TOL
        yield "oracle PSD (-min eigenvalue)", -float(np.linalg.eigvalsh(rho)[0]), -PSD_TOL
        if point["exact"] is not None and point["zeroth"] is not None:
            d1 = _trace_distance(rho, _cm(point["exact"]["state"]))
            d0 = _trace_distance(rho, _cm(point["zeroth"]["state"]))
            yield "oracle distance first-order / zeroth-order", d1 / d0, 1.0
        if i == 0:
            # One coupling against the benchmark's own construction, at the
            # program's cutoff and at two lower ones.
            cutoff = point["oracle"]["fock_cutoff"]
            ref = reduced_state(p, modes, lam, cutoff)
            yield "oracle rho_S vs own eigensolve", float(np.max(np.abs(rho - ref))), DENSE_TOL
            (c_row, d_row), = [r for r in point["oracle"]["convergence"] if r[0] == cutoff - 5]
            d5 = _trace_distance(reduced_state(p, modes, lam, c_row), ref)
            d2 = _trace_distance(reduced_state(p, modes, lam, cutoff - 2), ref)
            yield "oracle convergence row vs own eigensolve", abs(d_row - d5), DENSE_TOL
            # The program's row at cutoff - 5 must lie farther out than the
            # reference at cutoff - 2.
            yield "oracle convergence: d(cutoff-2) / program's d(cutoff-5)", d2 / d_row, 1.0


_CHECKS = {
    "me-lambda-sweep": _check_me_lambda_sweep,
    "multilevel-beta-sweep": _check_multilevel_beta_sweep,
    "oracle-crosscheck": _check_oracle_crosscheck,
}
