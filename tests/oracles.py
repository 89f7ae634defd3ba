"""Independent reference computations used to freeze expected test values.

Everything here is deliberately redundant with the package: brute-force
quadrature, closed forms and series solutions that do not share code with the
implementation paths they check.
"""

import numpy as np
from scipy.integrate import quad
from scipy.special import eval_legendre, spherical_jn, spherical_yn


# ---------------------------------------------------------------------------
# sphere chord-direction integral


def sphere_inner_integral():
    """Inner integral of ((x-y)/|x-y|).n(y) over the unit sphere for fixed x.

    On the unit sphere (x-y).n(y) = cos(theta) - 1 and |x-y| = 2 sin(theta/2),
    so the integrand reduces to -sin(theta/2); the value is independent of x.
    """
    val, _ = quad(lambda th: -np.sin(th / 2.0) * 2.0 * np.pi * np.sin(th), 0.0, np.pi)
    return val


# ---------------------------------------------------------------------------
# spherical Helmholtz series helpers


def hn1(n, z):
    return spherical_jn(n, z) + 1j * spherical_yn(n, z)


def jn_prime(n, z):
    return spherical_jn(n, z, derivative=True)


def hn1_prime(n, z):
    return spherical_jn(n, z, derivative=True) + 1j * spherical_yn(n, z, derivative=True)


def _far_sum(coeffs, kappa0, cos_angles, n_max):
    """Kernel-convention far field 4*pi/kappa0 * sum c_n (-i)^(n+1) P_n(cos)."""
    out = np.zeros(len(cos_angles), dtype=complex)
    for n in range(n_max + 1):
        out += coeffs[n] * (-1j) ** (n + 1) * eval_legendre(n, cos_angles)
    return 4.0 * np.pi / kappa0 * out


def soft_sphere_far_field(kappa0, radius, directions, theta):
    """Sound-soft sphere far field in the e^{-i k x.y} kernel convention."""
    directions = np.asarray(directions, dtype=float)
    cosang = directions @ np.asarray(theta, dtype=float)
    ka = kappa0 * radius
    n_max = int(4 * np.ceil(ka) + 20)
    coeffs = {}
    for n in range(n_max + 1):
        coeffs[n] = -(1j**n) * (2 * n + 1) * spherical_jn(n, ka) / hn1(n, ka)
    return _far_sum(coeffs, kappa0, cosang, n_max)


def penetrable_ball_fields(kappa0, q, radius, theta, n_max=None):
    """Transmission series for (lap + kappa0^2 - q Xi_ball) u = 0, u = e^{ik x.th} + u^s.

    Interior wavenumber kappa_in = sqrt(kappa0^2 - q) (principal branch for
    complex arguments).  Both u and du/dr are continuous across the interface.
    Returns (alpha_n, beta_n) interior/scattered mode coefficients.
    """
    kin = np.sqrt(complex(kappa0**2 - q))
    ka, kia = kappa0 * radius, kin * radius
    if n_max is None:
        n_max = int(4 * np.ceil(abs(ka)) + 20)
    alpha, beta = {}, {}
    for n in range(n_max + 1):
        inc = (1j**n) * (2 * n + 1)
        # [ j_n(kia), -h_n(ka) ] [alpha]   [  inc j_n(ka)  ]
        # [ kin j'(kia), -k0 h'(ka) ] [beta] = [ inc k0 j'(ka) ]
        a11, a12 = spherical_jn(n, kia), -hn1(n, ka)
        a21, a22 = kin * spherical_jn(n, kia, derivative=True), -kappa0 * hn1_prime(n, ka)
        b1, b2 = inc * spherical_jn(n, ka), inc * kappa0 * jn_prime(n, ka)
        det = a11 * a22 - a12 * a21
        alpha[n] = (b1 * a22 - a12 * b2) / det
        beta[n] = (a11 * b2 - b1 * a21) / det
    return alpha, beta, n_max


def penetrable_ball_far_field(kappa0, q, radius, directions, theta):
    directions = np.asarray(directions, dtype=float)
    cosang = directions @ np.asarray(theta, dtype=float)
    _, beta, n_max = penetrable_ball_fields(kappa0, q, radius, theta)
    return _far_sum(beta, kappa0, cosang, n_max)


def penetrable_ball_total_field(kappa0, q, radius, theta, points):
    """Total field of the constant-potential ball at arbitrary points."""
    points = np.asarray(points, dtype=float)
    r = np.linalg.norm(points, axis=-1)
    cosang = np.divide(points @ np.asarray(theta, float), r, out=np.zeros_like(r), where=r > 0)
    kin = np.sqrt(complex(kappa0**2 - q))
    alpha, beta, n_max = penetrable_ball_fields(kappa0, q, radius, theta)
    out = np.zeros(points.shape[0], dtype=complex)
    inside = r < radius
    for n in range(n_max + 1):
        pn = eval_legendre(n, cosang)
        inc = (1j**n) * (2 * n + 1)
        radial_in = spherical_jn(n, kin * r)
        radial_out = inc * spherical_jn(n, kappa0 * r) + beta[n] * hn1(n, kappa0 * np.maximum(r, 1e-300))
        out += np.where(inside, alpha[n] * radial_in, radial_out) * pn
    return out


def metasurface_sphere_series(kappa0, sigma_h, radius, theta, n_max=None):
    """Mode coefficients for the sphere with jump [du/dn] = sigma_h * u, [u] = 0.

    u_in = sum alpha_n j_n(k r) P_n, u_out = u^I + sum beta_n h_n(k r) P_n.
    """
    ka = kappa0 * radius
    if n_max is None:
        n_max = int(4 * np.ceil(ka) + 20)
    alpha, beta = {}, {}
    for n in range(n_max + 1):
        inc = (1j**n) * (2 * n + 1)
        jn, hn = spherical_jn(n, ka), hn1(n, ka)
        jnp, hnp = kappa0 * jn_prime(n, ka), kappa0 * hn1_prime(n, ka)
        # continuity: inc jn + beta hn = alpha jn
        # jump:      (inc jnp + beta hnp) - alpha jnp = sigma_h alpha jn
        a11, a12, b1 = jn, -hn, inc * jn
        a21, a22, b2 = jnp + sigma_h * jn, -hnp, inc * jnp
        det = a11 * a22 - a12 * a21
        alpha[n] = (b1 * a22 - a12 * b2) / det
        beta[n] = (a11 * b2 - b1 * a21) / det
    return alpha, beta, n_max


def metasurface_sphere_far_field(kappa0, sigma_h, radius, directions, theta):
    directions = np.asarray(directions, dtype=float)
    cosang = directions @ np.asarray(theta, dtype=float)
    _, beta, n_max = metasurface_sphere_series(kappa0, sigma_h, radius, theta)
    return _far_sum(beta, kappa0, cosang, n_max)


def metasurface_sphere_surface_values(kappa0, sigma_h, radius, theta, points):
    """Trace of the total field on the sphere (equals the interior limit)."""
    points = np.asarray(points, dtype=float)
    cosang = (points / radius) @ np.asarray(theta, dtype=float)
    alpha, _, n_max = metasurface_sphere_series(kappa0, sigma_h, radius, theta)
    out = np.zeros(points.shape[0], dtype=complex)
    for n in range(n_max + 1):
        out += alpha[n] * spherical_jn(n, kappa0 * radius) * eval_legendre(n, cosang)
    return out


# ---------------------------------------------------------------------------
# brute-force cell / panel quadrature


def cell_helmholtz_weight(g, kappa0, depth=5):
    """Integral of e^{ik r}/(4 pi r) over a cube of side g about its center,
    by adaptive 8^k subdivision with midpoint evaluation (singular octants
    recurse)."""

    def recurse(center, side, level):
        r = np.linalg.norm(center)
        if level == 0 or r > 0.75 * side * np.sqrt(3):
            if r == 0:
                return 0.0
            return side**3 * np.exp(1j * kappa0 * r) / (4 * np.pi * r)
        out = 0.0
        for dx in (-0.25, 0.25):
            for dy in (-0.25, 0.25):
                for dz in (-0.25, 0.25):
                    out += recurse(center + side * np.array([dx, dy, dz]), side / 2, level - 1)
        return out

    return recurse(np.zeros(3), g, depth)


def panel_helmholtz_weight(vertices, point, kappa0, depth=6):
    """Integral of e^{ik r}/(4 pi |point - y|) over a planar polygon panel by
    recursive triangle subdivision with centroid evaluation."""
    verts = np.asarray(vertices, dtype=float)
    tris = [np.array([verts[0], verts[j], verts[j + 1]]) for j in range(1, len(verts) - 1)]

    def tri_area(t):
        return 0.5 * np.linalg.norm(np.cross(t[1] - t[0], t[2] - t[0]))

    def recurse(t, level):
        c = t.mean(axis=0)
        r = np.linalg.norm(point - c)
        size = max(np.linalg.norm(t[i] - t[(i + 1) % 3]) for i in range(3))
        if level == 0 or r > 2.0 * size:
            if r < 0.5 * size:
                # singular core: the weakly singular remainder is O(size^2),
                # negligible at the recursion depths used here
                return 0.0
            return tri_area(t) * np.exp(1j * kappa0 * r) / (4 * np.pi * r)
        m01, m12, m20 = 0.5 * (t[0] + t[1]), 0.5 * (t[1] + t[2]), 0.5 * (t[2] + t[0])
        subs = [
            np.array([t[0], m01, m20]),
            np.array([t[1], m12, m01]),
            np.array([t[2], m20, m12]),
            np.array([m01, m12, m20]),
        ]
        return sum(recurse(s, level - 1) for s in subs)

    return sum(recurse(t, depth) for t in tris)


# ---------------------------------------------------------------------------
# misc


def born_far_field_ball(kappa0, v0, h_star, radius, directions, theta):
    """First Born approximation far field for a constant potential ball:
    -h V0 * FT of the ball indicator at kappa0 (theta - x_hat)."""
    directions = np.asarray(directions, dtype=float)
    qvec = kappa0 * (np.asarray(theta, float)[None, :] - directions)
    q = np.linalg.norm(qvec, axis=1)
    qr = q * radius
    ft = np.where(
        qr > 1e-8,
        4 * np.pi * (np.sin(qr) - qr * np.cos(qr)) / np.maximum(q, 1e-300) ** 3,
        4 * np.pi * radius**3 / 3 * (1 - qr**2 / 10),
    )
    return -h_star * v0 * ft


def two_bubble_charges(c_coeff, kappa0, z1, z2, theta):
    """Closed-form 2x2 solution of the point-interaction system."""
    z1, z2 = np.asarray(z1, float), np.asarray(z2, float)
    r = np.linalg.norm(z1 - z2)
    phi = np.exp(1j * kappa0 * r) / (4 * np.pi * r)
    u1 = np.exp(1j * kappa0 * z1 @ np.asarray(theta, float))
    u2 = np.exp(1j * kappa0 * z2 @ np.asarray(theta, float))
    det = 1.0 / c_coeff**2 - phi**2
    q1 = (-u1 / c_coeff + phi * u2) / det
    q2 = (-u2 / c_coeff + phi * u1) / det
    return q1, q2


# ---------------------------------------------------------------------------
# broadcast kernel formulas (the pre-blocking implementations, kept verbatim)


def _broadcast_distances(points):
    z = np.asarray(points, dtype=float)
    return np.linalg.norm(z[:, None, :] - z[None, :, :], axis=2)


def broadcast_assemble(centers, c_coeff, kappa0):
    """Point-interaction matrix via the (M, M, 3) difference array."""
    r = _broadcast_distances(centers)
    off = ~np.eye(len(r), dtype=bool)
    a = np.zeros(r.shape, dtype=complex)
    a[off] = np.exp(1j * kappa0 * r[off]) / (4.0 * np.pi * r[off])
    np.fill_diagonal(a, 1.0 / c_coeff)
    return a


def broadcast_weights(points, kappa0, col_weights, diagonal):
    """Kernel times column weights off the diagonal (panel and voxel weights)."""
    r = _broadcast_distances(points)
    off = r > 0
    w = np.zeros(r.shape, dtype=complex)
    w[off] = np.exp(1j * kappa0 * r[off]) / (4.0 * np.pi * r[off])
    w *= col_weights
    np.fill_diagonal(w, diagonal)
    return w


def direct_far_field(directions, points, weights, kappa0):
    """sum_j e^{-i k d . z_j} w_j through the full (D, M) phase matrix."""
    d = np.asarray(directions, dtype=float)
    return np.exp(-1j * kappa0 * (d @ np.asarray(points, dtype=float).T)) @ weights
