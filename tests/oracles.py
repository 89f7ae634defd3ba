"""Independent reference computations used to freeze expected test values.

Everything here is deliberately redundant with the package: brute-force
quadrature, closed forms and series solutions that do not share code with the
implementation paths they check.
"""

import itertools
import json

import numpy as np
import scipy.fft
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import eval_legendre, spherical_jn, spherical_yn

from bubblelab.errors import GeometryError


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


def sphere_dirichlet_wavenumbers(radius, k_max):
    """Interior Dirichlet resonances of a ball below k_max: the zeros of
    j_n(k radius) over all orders n, bracketed on a grid and refined."""
    xs = np.linspace(1e-6, k_max * radius, max(64, int(20 * k_max * radius)))
    zeros = []
    for n in range(int(k_max * radius) + 2):  # j_n has no zero below n
        vals = spherical_jn(n, xs)
        for i in np.nonzero(vals[:-1] * vals[1:] < 0)[0]:
            zeros.append(brentq(lambda x: spherical_jn(n, x), xs[i], xs[i + 1]) / radius)
    return np.array(sorted(zeros))


def voxel_scattered_field(points, centers, g, strengths, kappa0, self_weight):
    """Representation formula -sum_j w(x, z_j) s_j of a voxel volume solution.

    w = g^3 e^{ik|x - z_j|} / (4 pi |x - z_j|) away from cell j, and
    ``self_weight`` when x lies in cell j (cubes of side g about ``centers``).
    """
    diff = np.atleast_2d(np.asarray(points, float))[:, None, :] - np.asarray(centers)[None]
    inside = np.all(np.abs(diff) <= g / 2.0 + 1e-12, axis=2)
    r = np.where(inside, 1.0, np.linalg.norm(diff, axis=2))
    w = np.where(inside, self_weight, g**3 * np.exp(1j * kappa0 * r) / (4.0 * np.pi * r))
    return -(w @ np.asarray(strengths))


def born_far_field_ball(kappa0, v0, radius, directions, theta):
    """First Born approximation far field for a constant potential ball:
    -V0 * FT of the ball indicator at kappa0 (theta - x_hat)."""
    directions = np.asarray(directions, dtype=float)
    qvec = kappa0 * (np.asarray(theta, float)[None, :] - directions)
    q = np.linalg.norm(qvec, axis=1)
    qr = q * radius
    ft = np.where(
        qr > 1e-8,
        4 * np.pi * (np.sin(qr) - qr * np.cos(qr)) / np.maximum(q, 1e-300) ** 3,
        4 * np.pi * radius**3 / 3 * (1 - qr**2 / 10),
    )
    return -v0 * ft


def helmholtz_kernel(x, y, kappa0):
    """e^{ik|x-y|} / (4 pi |x-y|), broadcasting over leading axes."""
    r = np.linalg.norm(np.asarray(x, float) - np.asarray(y, float), axis=-1)
    return np.exp(1j * kappa0 * r) / (4.0 * np.pi * r)


def near_field(solution, centers, kappa0, x):
    """Scattered field sum_m Phi(x, z_m) Q_m of a point-interaction solution.

    For |x| -> infinity, 4 pi |x| e^{-ik|x|} times this value tends to the
    far-field pattern at x_hat (kernel convention).
    """
    r = np.linalg.norm(np.asarray(centers, float) - np.asarray(x, float)[None, :], axis=1)
    if np.any(r == 0.0):
        raise GeometryError("near-field evaluation at a bubble center")
    return complex((np.exp(1j * kappa0 * r) / (4.0 * np.pi * r)) @ solution.charges)


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


def lattice_convolution_unblocked(mask, spacing, kappa0, diagonal, values):
    """The lattice kernel matvec in one zero-padded (2nx, 2ny, 2nz) box.

    The unblocked form of ``LatticeConvolution.apply``: the octant spectrum
    from ``scipy.fft.dctn(type=1)``, the same pruned per-line ``numpy.fft``
    passes in place over the whole padded box, and the products over its
    eight mirrored corners, so the blocked operator must match it bit for bit.
    """
    mask = np.asarray(mask, dtype=bool)
    nx, ny, nz = dims = mask.shape
    ox, oy, oz = np.ix_(*(np.arange(n + 1) * spacing for n in dims))
    r = np.sqrt(ox**2 + oy**2 + oz**2)
    with np.errstate(divide="ignore", invalid="ignore"):
        octant = np.exp(1j * kappa0 * r) / (4.0 * np.pi * r)
    octant[0, 0, 0] = diagonal
    octant[-1] = octant[:, -1] = octant[:, :, -1] = 0.0
    khat = np.empty(octant.shape, dtype=complex)
    khat.real = scipy.fft.dctn(octant.real, type=1)
    khat.imag = scipy.fft.dctn(octant.imag, type=1)
    halves = [((slice(0, n + 1), slice(0, n + 1)), (slice(n + 1, 2 * n), slice(n - 1, 0, -1)))
              for n in dims]
    w = np.zeros(tuple(2 * n for n in dims), dtype=complex)
    wx, wxy = w[:nx], w[:nx, :ny]
    wxy[:, :, :nz][mask] = values
    np.fft.fft(wxy, axis=2, out=wxy)
    np.fft.fft(wx, axis=1, out=wx)
    np.fft.fft(w, axis=0, out=w)
    for pairs in itertools.product(*halves):
        padded, octant_slices = zip(*pairs)
        w[padded] *= khat[octant_slices]
    np.fft.ifft(w, axis=0, out=w)
    np.fft.ifft(wx, axis=1, out=wx)
    np.fft.ifft(wxy, axis=2, out=wxy)
    return wxy[:, :, :nz][mask]


# ---------------------------------------------------------------------------
# short-recurrence solve


def cocg_five_vectors(matvec, rhs, diagonal, rtol, max_iter):
    """(x, iterations) of Jacobi-preconditioned COCG in its five-vector form.

    x, r, p and z are updated in place and q = ``matvec(p)`` is a new array
    each iteration.  ``kernels.cocg`` keeps z and A p in one work vector and
    must match this loop bit for bit; raises RuntimeError where it raises
    SolverError.
    """
    r = np.array(rhs, dtype=complex)
    x = np.zeros_like(r)
    stop = rtol * np.linalg.norm(r)
    if stop == 0.0:
        return x, 0
    z = r / diagonal
    p = z.copy()
    rho = r @ z
    for it in range(max_iter):
        if rho == 0.0 or not np.isfinite(rho):
            raise RuntimeError(f"breakdown after {it} matvecs")
        q = matvec(p)
        mu = p @ q
        if mu == 0.0 or not np.isfinite(mu):
            raise RuntimeError(f"breakdown after {it + 1} matvecs")
        alpha = rho / mu
        q *= -alpha
        r += q
        x += p * alpha
        if np.linalg.norm(r) <= stop:
            return x, it + 1
        np.divide(r, diagonal, out=z)
        rho, rho_old = r @ z, rho
        p *= rho / rho_old
        p += z
    raise RuntimeError(f"no convergence in {max_iter} matvecs")


# ---------------------------------------------------------------------------
# flat-panel potential


def polygon_potential(vertices, point):
    """Int_P 1/(4 pi |x - y|) dS(y) over a flat polygon P by adaptive quadrature.

    Edge-wise polar form about the projection of x onto the plane of P: each
    edge at signed in-plane distance p (positive on the polygon's side) spans
    the angles phi1..phi2 seen from that projection, the radial integral of
    r / sqrt(r^2 + h^2) out to p sec(phi) is done by hand, and
    ``scipy.integrate.quad`` integrates what is left over the angle.
    """
    v = np.asarray(vertices, dtype=float)
    x = np.asarray(point, dtype=float)
    n = np.cross(v[1] - v[0], v[2] - v[0])
    n /= np.linalg.norm(n)
    h = abs((x - v[0]) @ n)
    total = 0.0
    for a, b in zip(v, np.roll(v, -1, axis=0)):
        length = np.linalg.norm(b - a)
        t = (b - a) / length
        p = (x - a) @ np.cross(n, t)
        if abs(p) <= 1e-14 * length:
            continue  # the edge subtends no angle

        def radial(phi):
            r = abs(p) / np.cos(phi)
            return r * r / (np.sqrt(r * r + h * h) + h)  # sqrt(r^2 + h^2) - h

        phi1 = np.arctan2((a - x) @ t, abs(p))
        phi2 = np.arctan2((b - x) @ t, abs(p))
        val, _ = quad(radial, phi1, phi2, epsabs=0.0, epsrel=1e-13, limit=200)
        total += np.sign(p) * val
    return total / (4.0 * np.pi)


def panel_corners(mesh, k):
    """The corner coordinates of panel k of a ``SurfaceMesh``, a padded
    triangle's repeated vertex 0 dropped."""
    panel = mesh.panels[k]
    return mesh.vertices[panel[:3] if panel[-1] == panel[0] else panel]


def single_layer_by_loops(mesh, densities, kappa0, x, near_factor=6.0):
    """Single-layer potential at one point x, panel by panel.

    Panels farther than ``near_factor`` radii use the centroid rule.  Nearer
    ones take the static part from ``polygon_potential`` on the whole panel
    and the remainder (e^{ikr} - 1)/(4 pi r) from the centroid rule on the
    four midpoint children of each fan triangle.
    """
    total = 0.0
    for k in range(mesh.n_panels):
        verts = panel_corners(mesh, k)
        r = np.linalg.norm(x - mesh.centroids[k])
        if r > near_factor * mesh.panel_radii[k]:
            total += np.exp(1j * kappa0 * r) / (4.0 * np.pi * r) * mesh.areas[k] * densities[k]
            continue
        value = polygon_potential(verts, x)
        for j in range(1, len(verts) - 1):
            a, b, c = verts[0], verts[j], verts[j + 1]
            ab, bc, ca = (a + b) / 2, (b + c) / 2, (c + a) / 2
            for child in ((a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)):
                area = 0.5 * np.linalg.norm(np.cross(child[1] - child[0], child[2] - child[0]))
                rq = np.linalg.norm(x - sum(child) / 3.0)
                smooth = ((np.exp(1j * kappa0 * rq) - 1.0) / (4.0 * np.pi * rq) if rq > 1e-14
                          else 1j * kappa0 / (4.0 * np.pi))
                value += smooth * area
        total += value * densities[k]
    return total


# ---------------------------------------------------------------------------
# trimmed lattice volume, one site at a time


def cube_meets_domain(domain, center, half):
    """Whether one axis-aligned cube of half side ``half`` meets a box or ball
    domain (the per-site form build_volumetric used to loop over)."""
    c = np.asarray(center, dtype=float)
    if hasattr(domain, "radius"):
        gap = np.maximum(np.abs(c - np.asarray(domain.center)) - half, 0.0)
        return bool(np.linalg.norm(gap) <= domain.radius + 1e-12)
    lo, hi = domain.bounding_box()
    return bool(np.all((c + half >= lo - 1e-12) & (c - half <= hi + 1e-12)))


def dropped_volume_by_loop(domain, sites, half, cell_volume):
    """Summed volume of the sites outside the domain whose cubes still meet it."""
    total = 0.0
    for site, keep in zip(sites, domain.contains(sites)):
        if not keep and cube_meets_domain(domain, site, half):
            total += cell_volume
    return total


# ---------------------------------------------------------------------------
# sphere cap mesh


def sphere_cap_by_loops(radius, theta_max, n_rings, n_phi):
    """Vertices and panels of ``meshes.sphere_cap_mesh``, placed one at a time:
    the pole, then n_phi points per ring at polar angles whose last (up to 3)
    intervals shrink by 0.7 per step toward the rim.  The panels are an
    (n, 4) array in which each pole-fan triangle repeats its vertex 0."""
    levels = min(3, max(n_rings - 1, 0))
    w = [1.0] * n_rings
    for k in range(levels):
        for i in range(n_rings - levels + k, n_rings):
            w[i] *= 0.7
    breaks = np.concatenate([[0.0], np.cumsum(w)])
    verts = [[0.0, 0.0, radius]]
    for th in theta_max * breaks[1:] / breaks[-1]:
        for k in range(n_phi):
            ph = 2 * np.pi * k / n_phi
            verts.append([radius * np.sin(th) * np.cos(ph), radius * np.sin(th) * np.sin(ph),
                          radius * np.cos(th)])
    faces = [(0, 1 + k, 1 + (k + 1) % n_phi, 0) for k in range(n_phi)]
    for r in range(n_rings - 1):
        lo, hi = 1 + r * n_phi, 1 + (r + 1) * n_phi
        faces += [(lo + k, hi + k, hi + (k + 1) % n_phi, lo + (k + 1) % n_phi)
                  for k in range(n_phi)]
    return np.array(verts), np.array(faces)


# ---------------------------------------------------------------------------
# strict JSON


def strict_json(text):
    """``json.loads`` that refuses NaN and Infinity, which RFC 8259 JSON does not have."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)
