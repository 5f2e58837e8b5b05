import numpy as np
import pytest

from skewflow import (
    Immersion,
    PeriodicGrid,
    diff1,
    diff2,
    fundamental_forms,
    load_immersion_csv,
    make_circle,
    make_perturbed_circle,
    make_perturbed_torus,
    make_product_torus,
    save_immersion_csv,
    volume,
)
from skewflow.errors import DegenerateImmersionError
from skewflow.geometry import (
    normal_completion,
    project_field,
    quarter_turn,
    rho_field,
    rotate_normal_field,
    tangent_basis_field,
)
from skewflow.exterior import MultiVector
from skewflow.grassmann import AdaptedFrame, GrassmannPoint, check_frames, normal_rotate

from conftest import REFERENCE_GEOMETRIES, REFERENCE_IDS


def radial_fields(imm):
    x, y = imm.grid.meshgrid()
    r1 = np.stack([np.cos(x), np.sin(x), 0 * x, 0 * x])
    r2 = np.stack([0 * x, 0 * x, np.cos(y), np.sin(y)])
    return r1, r2


def test_grid_validation():
    with pytest.raises(ValueError):
        PeriodicGrid((7,))
    with pytest.raises(ValueError):
        PeriodicGrid((9,))
    for period in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            PeriodicGrid((16,), periods=(period,))
    grid = PeriodicGrid((16, 32))
    assert grid.spacings == (2 * np.pi / 16, 2 * np.pi / 32)
    # int() truncated sizes: a (64.9,) grid had 64 nodes, and so did a circle of 64.5
    for build in (lambda: PeriodicGrid((64.9,)), lambda: PeriodicGrid((64, 32.5)), lambda: make_circle(1.0, 64.5)):
        with pytest.raises(ValueError, match="whole number"):
            build()
    # a bool is no size, though Python counts it an int
    for size in (True, np.True_):
        with pytest.raises(ValueError, match="whole number"):
            PeriodicGrid((16, size))
    # numpy integers and whole floats are sizes, as the CLI reads them
    assert PeriodicGrid((np.int64(64), 32.0)).sizes == (64, 32)
    assert make_circle(1.0, np.int32(64)).F.shape == (64, 3)
    # a second torus size of 0 was taken for "unset" and replaced by the first
    for build in (make_product_torus, lambda *args: make_perturbed_torus(*args[:2], 0.05, 7, *args[2:])):
        with pytest.raises(ValueError, match=">= 8"):
            build(1.0, 0.6, 32, 0)


def test_diff1_taylor_bound():
    grid = PeriodicGrid((64,))
    x = grid.axes()[0]
    err = np.abs(diff1(np.sin(x), grid, 0) - np.cos(x))
    # remainder of the centered stencil is h^2/6 * max|f'''|
    assert np.max(err) <= (2 * np.pi / 64) ** 2


def test_diff_constant_exact():
    grid = PeriodicGrid((16, 16))
    field = np.full((3,) + grid.sizes, 1.7)
    assert np.max(np.abs(diff1(field, grid, 0))) == 0.0
    assert np.max(np.abs(diff2(field, grid, 0, 1))) == 0.0


def test_diff2_taylor_bound():
    grid = PeriodicGrid((64,))
    x = grid.axes()[0]
    err = np.abs(diff2(np.sin(x), grid, 0, 0) + np.sin(x))
    assert np.max(err) <= (2 * np.pi / 64) ** 2


def test_diff2_mixed_oracle():
    grid = PeriodicGrid((48, 48))
    x, y = grid.meshgrid()
    f = np.sin(x) * np.sin(2 * y)
    exact = 2 * np.cos(x) * np.cos(2 * y)
    err = np.abs(diff2(f, grid, 0, 1) - exact)
    assert np.max(err) <= 4 * (2 * np.pi / 48) ** 2


def test_frame_field_circle():
    imm = make_circle(1.0, 64)
    frames = fundamental_forms(imm)
    x = imm.grid.axes()[0]
    expect = np.stack([-np.sin(x), np.cos(x), 0 * x])
    assert np.max(np.abs(frames.e[0] - expect)) < 1e-12
    # normal plane = span{radial, e_z}
    radial = np.stack([np.cos(x), np.sin(x), 0 * x])
    ez = np.zeros_like(radial)
    ez[2] = 1.0
    got = np.einsum("an...,am...->nm...", frames.nu, frames.nu)
    expect_proj = np.einsum("n...,m...->nm...", radial, radial) + np.einsum("n...,m...->nm...", ez, ez)
    assert np.max(np.abs(got - expect_proj)) < 1e-12
    check_frames(np.moveaxis(np.concatenate([frames.e, frames.nu]), (0, 1), (-2, -1)))  # orthonormal and oriented


def test_frame_field_product_torus_direct_differentiation():
    imm = make_product_torus(1.0, 0.5, 32)
    frames = fundamental_forms(imm)
    x, y = imm.grid.meshgrid()
    e1 = np.stack([-np.sin(x), np.cos(x), 0 * x, 0 * x])
    e2 = np.stack([0 * x, 0 * x, -np.sin(y), np.cos(y)])
    assert np.max(np.abs(frames.e[0] - e1)) < 1e-12
    assert np.max(np.abs(frames.e[1] - e2)) < 1e-12
    r1, r2 = radial_fields(imm)
    got = np.einsum("an...,am...->nm...", frames.nu, frames.nu)
    expect = np.einsum("n...,m...->nm...", r1, r1) + np.einsum("n...,m...->nm...", r2, r2)
    assert np.max(np.abs(got - expect)) < 1e-12
    dets = np.linalg.det(np.moveaxis(np.concatenate([frames.e, frames.nu]), (0, 1), (-2, -1)))
    assert np.min(dets) > 0


def test_frame_field_flat_patch_interior():
    # a linear chart is not parameter-periodic; the seam columns are excluded
    grid = PeriodicGrid((16, 16))
    x, y = grid.meshgrid()
    F = np.stack([x, y, 0 * x, 0 * x], axis=-1)
    frames = fundamental_forms(Immersion(grid=grid, F=F))
    inner_e = frames.e[..., 2:-2, 2:-2]
    assert np.max(np.abs(inner_e - inner_e[..., :1, :1])) < 1e-12


def test_frame_field_degenerate_node_error():
    imm = make_circle(1.0, 16)
    F = imm.F.copy()
    F[:] = F[0]  # collapse to a point: zero tangent everywhere
    with pytest.raises(DegenerateImmersionError) as err:
        fundamental_forms(Immersion(grid=imm.grid, F=F))
    assert err.value.node is not None


def test_fundamental_forms_circle_analytic_curvature():
    for r in (1.0, 2.5):
        imm = make_circle(r, 128)
        cache = fundamental_forms(imm)
        x = imm.grid.axes()[0]
        radial = np.stack([np.cos(x), np.sin(x), 0 * x])
        h = imm.grid.spacings[0]
        # analytic: H = -(1/r) radial; discrete stencil factor 2(1-cos h)/h^2 / sinc^2
        assert np.max(np.abs(cache.H + radial / r)) < h * h
        assert np.max(np.abs(np.linalg.norm(cache.H, axis=0) - 1.0 / r)) < h * h


def test_fundamental_forms_product_torus_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    a_val, b_val = 1.0, 0.6
    x, y = sympy.symbols("x y", real=True)
    F = sympy.Matrix([a_val * sympy.cos(x), a_val * sympy.sin(x), b_val * sympy.cos(y), b_val * sympy.sin(y)])
    tx, ty = F.diff(x), F.diff(y)
    g = sympy.Matrix([[tx.dot(tx), tx.dot(ty)], [tx.dot(ty), ty.dot(ty)]])
    ginv = g.inv()
    d2 = {(0, 0): F.diff(x, 2), (0, 1): F.diff(x).diff(y), (1, 1): F.diff(y, 2)}
    e1 = tx / tx.norm()
    e2s = ty - ty.dot(e1) * e1
    e2 = e2s / e2s.norm()

    def nperp(v):
        return v - v.dot(e1) * e1 - v.dot(e2) * e2

    H_sym = sympy.zeros(4, 1)
    for (i, j), val in d2.items():
        w = ginv[i, j] * nperp(val)
        H_sym += w if i == j else 2 * w
    H_fn = sympy.lambdify((x, y), H_sym, "numpy")

    imm = make_product_torus(a_val, b_val, 48)
    cache = fundamental_forms(imm)
    X, Y = imm.grid.meshgrid()
    h = imm.grid.spacings[0]
    for node in [(0, 0), (5, 11), (17, 40), (33, 7)]:
        expected = np.array(H_fn(X[node], Y[node])).ravel()
        assert np.max(np.abs(cache.H[(..., *node)] - expected)) < h * h
    # the normal gradient of H vanishes on the product torus
    assert np.max(np.abs(cache.grad_H_perp)) < h * h


def test_fundamental_forms_mean_curvature_vector_torus():
    imm = make_product_torus(1.0, 0.6, 64)
    cache = fundamental_forms(imm)
    r1, r2 = radial_fields(imm)
    h = imm.grid.spacings[0]
    expect = -r1 / 1.0 - r2 / 0.6
    assert np.max(np.abs(cache.H - expect)) < 2 * h * h
    # A is symmetric and H is exactly normal by construction
    assert np.max(np.abs(cache.A - np.swapaxes(cache.A, 1, 2))) == 0.0
    tang = np.einsum("n...,in...->i...", cache.H, cache.e)
    assert np.max(np.abs(tang)) < 1e-12


def test_flat_patch_interior_flatness():
    grid = PeriodicGrid((16, 16))
    x, y = grid.meshgrid()
    F = np.stack([x, y, 0 * x, 0 * x], axis=-1)
    cache = fundamental_forms(Immersion(grid=grid, F=F))
    sl = (..., slice(2, -2), slice(2, -2))
    assert np.max(np.abs(cache.A[sl])) < 1e-12
    assert np.max(np.abs(cache.H[sl])) < 1e-12


def test_volume_circle():
    assert volume(make_circle(1.0, 256)) == pytest.approx(2 * np.pi, abs=1e-3)


def test_volume_product_torus():
    # discrete area carries a sinc^2 factor, about 2 h^2 / 6 relative
    got = volume(make_product_torus(1.0, 0.5, 128))
    expect = 4 * np.pi**2 * 0.5
    assert abs(got - expect) / expect < 1e-3


def test_volume_scaling_homogeneity():
    imm = make_circle(1.0, 64)
    scaled = Immersion(grid=imm.grid, F=3.0 * imm.F)
    assert volume(scaled) == pytest.approx(3.0 * volume(imm), rel=1e-12)


def test_volume_equals_tangent_data_sum_exactly():
    for imm in (make_circle(1.0, 64), make_perturbed_torus(1.0, 0.6, 0.05, 7, 24)):
        geom = fundamental_forms(imm)
        assert volume(imm) == float(np.sum(geom.sqrt_det_g) * imm.grid.cell_measure())
        assert np.array_equal(fundamental_forms(imm).min_sv, geom.min_sv)


LAZY = ("e", "nu", "R", "A", "H")


def test_geometry_computes_only_the_metric_block_up_front(monkeypatch):
    from skewflow import geometry

    imm = make_perturbed_torus(1.0, 0.6, 0.05, 7, 16)
    geom = fundamental_forms(imm)
    assert not any(name in vars(geom) for name in LAZY)
    built = []

    def recording(*args, **kwargs):
        built.append(geometry.GeometryCache(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(geometry, "fundamental_forms", recording)
    volume(imm)
    assert len(built) == 1
    assert not any(name in vars(built[0]) for name in LAZY)


def test_second_fundamental_form_and_mean_curvature_independent_of_read_order():
    imm = make_perturbed_torus(1.0, 0.6, 0.05, 7, 16)
    a_first = fundamental_forms(imm)
    A = a_first.A
    h_first = fundamental_forms(imm)
    H = h_first.H
    assert np.array_equal(A, h_first.A)
    assert np.array_equal(H, a_first.H)


def _rolled_diff1(values, grid, direction):
    """diff1 by two np.rolls: the layout before the copy-free differences."""
    h = grid.spacings[direction]
    axis = values.ndim - grid.m + direction
    return (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2.0 * h)


def _mirrored_d2(cache):
    """D_ij F as one (m, m, n, *sizes) array with the pair i < j mirrored: the layout
    before the per-pair arrays."""
    from skewflow.geometry import _second_difference

    h, m = cache.grid.spacings, cache.grid.m
    d2 = np.empty((m, m) + cache.f.shape)
    for i, j in cache._stencils.pairs:
        d2[j, i] = _second_difference(cache._stencils, h, i, j, d2[i, j])
    return d2


@pytest.mark.parametrize("imm", REFERENCE_GEOMETRIES, ids=REFERENCE_IDS)
def test_second_derivatives_are_the_mirrored_layout_bit_for_bit(imm):
    # A = <D_ij F, nu> with no projection, since nu is normal; H = (g^{ij} D_ij F)^perp, one projection
    cache = fundamental_forms(imm)
    d2 = _mirrored_d2(cache)
    A = np.einsum("ijn...,an...->aij...", d2, cache.nu)
    H = np.einsum("ij...,ijn...->n...", cache.g_inv, d2)
    H -= np.einsum("l...,ln...->n...", np.einsum("n...,ln...->l...", H, cache.e), cache.e)
    dH = np.stack([_rolled_diff1(H, imm.grid, i) for i in range(imm.grid.m)])
    grad = dH - np.einsum("il...,ln...->in...", np.einsum("in...,ln...->il...", dH, cache.e), cache.e)
    for got, expect in [(cache.A, A), (cache.H, H), (cache.grad_H_perp, grad)]:
        assert got.shape == expect.shape and got.tobytes() == expect.tobytes()
    for direction in range(imm.grid.m):
        for values in (cache.rho, cache.H):
            got, expect = diff1(values, imm.grid, direction), _rolled_diff1(values, imm.grid, direction)
            assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("imm", REFERENCE_GEOMETRIES, ids=REFERENCE_IDS)
def test_one_projection_agrees_with_projecting_every_second_difference(imm):
    # the formula before: each D_ij F projected onto the normal plane, then A and H from those
    cache = fundamental_forms(imm)
    d2 = _mirrored_d2(cache)
    d2 -= np.einsum("ijl...,ln...->ijn...", np.einsum("ijn...,ln...->ijl...", d2, cache.e), cache.e)
    A = np.einsum("ijn...,an...->aij...", d2, cache.nu)
    H = np.einsum("ij...,ijn...->n...", cache.g_inv, d2)
    for got, expect in [(cache.A, A), (cache.H, H)]:
        assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))


def test_degenerate_immersion_raises_at_construction_with_time():
    imm = make_circle(1.0, 16)
    F = np.repeat(imm.F[:1], 16, axis=0)  # collapsed to a point
    with pytest.raises(DegenerateImmersionError) as err:
        fundamental_forms(Immersion(grid=imm.grid, F=F), time=0.25)
    assert err.value.time == 0.25
    assert err.value.node is not None


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_fundamental_forms_of_a_non_finite_node_names_a_neighbour(value):
    # an infinite node used to pass the rank check, returning min_sv = inf
    imm = make_circle(1.0, 16)
    F = imm.F.copy()
    F[5, 0] = value
    with pytest.raises(DegenerateImmersionError, match="non-finite") as err:
        fundamental_forms(Immersion(grid=imm.grid, F=F))
    assert err.value.node == (4,)


def test_quarter_turn_is_the_determinant_form():
    # <J w, u> = det(t_1, ..., t_m, w, u) for xi = t_1 ^ ... ^ t_m, node by node
    rng = np.random.default_rng(5)
    for n in (3, 4):
        m = n - 2
        t, w = rng.standard_normal((m, n, 40)), rng.standard_normal((n, 40))
        xi = rho_field(t)
        got = quarter_turn(w, xi)
        for node in range(40):
            rows = np.vstack([t[..., node], w[:, node]])
            expect = [np.linalg.det(np.vstack([rows, u])) for u in np.eye(n)]
            assert np.allclose(got[:, node], expect, rtol=0.0, atol=1e-12)
        if n == 3:
            assert np.array_equal(got, np.cross(t[0], w, axis=0))
        out = np.full_like(got, np.nan)
        assert quarter_turn(w, xi, out=out, scratch=np.empty(40)) is out
        assert np.array_equal(out, got)


def test_gauss_field_circle_great_circle():
    imm = make_circle(2.0, 64)
    rho = fundamental_forms(imm).rho
    x = imm.grid.axes()[0]
    expect = np.stack([-np.sin(x), np.cos(x), 0 * x])
    assert np.max(np.abs(rho - expect)) < 1e-12


def test_gauss_field_flat_patch_constant_interior():
    grid = PeriodicGrid((16, 16))
    x, y = grid.meshgrid()
    F = np.stack([x, y, 0 * x, 0 * x], axis=-1)
    rho = fundamental_forms(Immersion(grid=grid, F=F)).rho
    inner = rho[:, 2:-2, 2:-2]
    assert np.max(np.abs(inner - inner[:, :1, :1])) < 1e-12


def test_gauss_field_point_accessor():
    imm = make_product_torus(1.0, 0.7, 16)
    field = fundamental_forms(imm)
    at = (..., 3, 9)
    frame = AdaptedFrame(field.e[at], field.nu[at])
    point = GrassmannPoint(xi=MultiVector(4, 2, field.rho[at]), frame=frame)  # validates unit norm, simplicity, frame match
    assert point.frame is frame


def test_gauge_independence_of_rho_and_H():
    rng = np.random.default_rng(31)
    imm = make_perturbed_torus(1.0, 0.7, 0.04, 5, 24)
    cache = fundamental_forms(imm)
    theta = rng.uniform(0, 2 * np.pi, size=cache.e.shape[2:])
    phi = rng.uniform(0, 2 * np.pi, size=theta.shape)
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    e_rot = np.stack(
        [ct * cache.e[0] + st * cache.e[1],
         -st * cache.e[0] + ct * cache.e[1]]
    )
    nu_rot = np.stack(
        [cp * cache.nu[0] + sp * cache.nu[1],
         -sp * cache.nu[0] + cp * cache.nu[1]]
    )
    assert np.max(np.abs(rho_field(e_rot) - rho_field(cache.e))) < 1e-10
    # recontract the mean curvature from rotated normals
    grid = imm.grid
    m = grid.m
    d2 = np.empty((m, m, 4) + grid.sizes)
    for i in range(m):
        for j in range(m):
            d2[i, j] = diff2(np.moveaxis(imm.F, -1, 0), grid, i, j)
    A_rot = np.einsum("ijn...,an...->aij...", d2, nu_rot)
    H_rot = np.einsum("ij...,aij...,an...->n...", cache.g_inv, A_rot, nu_rot)
    assert np.max(np.abs(H_rot - cache.H)) < 1e-10


def test_discrete_identify_invariant_product_torus():
    # unit-direction coefficients of the plane field differential vs the
    # frame-contracted second fundamental form: O(h^2), order ~2 under refinement
    errs = {}
    for size in (32, 64):
        imm = make_product_torus(1.0, 0.6, size)
        cache = fundamental_forms(imm)
        rho = rho_field(cache.e)
        drho = np.stack([diff1(rho, imm.grid, l) for l in range(2)])
        d_unit = np.einsum("il...,lc...->ic...", cache.R, drho)
        basis = tangent_basis_field(cache.e, cache.nu)
        lhs = np.einsum("jac...,ic...->ija...", basis, d_unit)
        rhs = np.einsum("il...,alp...,jp...->ija...", cache.R, cache.A, cache.R)
        errs[size] = np.max(np.abs(lhs - rhs))
    order = np.log2(errs[32] / errs[64])
    assert order >= 1.9


def test_normal_connection_commutes_with_rotation():
    # derivative of the rotated normal field vs rotation of the derivative
    def residual(size):
        imm = make_product_torus(1.0, 0.6, size)
        cache = fundamental_forms(imm)
        x, y = imm.grid.meshgrid()
        ambient = np.stack([np.sin(y), np.cos(x), np.sin(x), np.cos(y)])
        tang = np.einsum("in...,n...->i...", cache.e, ambient)
        mu = ambient - np.einsum("i...,in...->n...", tang, cache.e)
        jmu = rotate_normal_field(cache.e, mu)
        worst = 0.0
        for direction in range(2):
            djmu = diff1(jmu, imm.grid, direction)
            dmu = diff1(mu, imm.grid, direction)
            tang1 = np.einsum("in...,n...->i...", cache.e, djmu)
            lhs = djmu - np.einsum("i...,in...->n...", tang1, cache.e)
            tang2 = np.einsum("in...,n...->i...", cache.e, dmu)
            rhs = rotate_normal_field(cache.e, dmu - np.einsum("i...,in...->n...", tang2, cache.e))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        return worst

    r24, r48 = residual(24), residual(48)
    assert np.log2(r24 / r48) >= 0.9


def test_projection_field_matches_pointwise(tmp_path):
    from skewflow.exterior import inner, wedge_vectors

    rng = np.random.default_rng(33)
    imm = make_perturbed_torus(1.0, 0.8, 0.05, 2, 16)
    cache = fundamental_forms(imm)
    w = rng.standard_normal((6,) + imm.grid.sizes)
    coeffs = project_field(cache.e, cache.nu, w)
    for node in [(0, 0), (7, 3), (12, 15)]:
        frame = AdaptedFrame(cache.e[(..., *node)], cache.nu[(..., *node)])
        expect = np.empty((2, 2))
        for i in range(2):
            for alpha in range(2):
                legs = frame.e.copy()
                legs[i] = frame.nu[alpha]
                expect[i, alpha] = inner(MultiVector(4, 2, w[(..., *node)]), wedge_vectors(legs))
        assert np.max(np.abs(coeffs[(..., *node)] - expect)) < 1e-12


def test_normal_completion_tie_nodes():
    # on grids divisible by 8 the product torus has nodes, such as sizes // 8,
    # where ambient axes tie for the smallest tangential part (the lowest
    # index wins); seeded rotations of a perturbed torus and circle give
    # generic frames
    rng = np.random.default_rng(11)
    imms = [make_product_torus(1.0, 1.0, size) for size in (16, 32)]
    for imm in (make_perturbed_torus(1.0, 0.6, 0.05, 7, 24), make_perturbed_circle(1.0, 0.3, 5, 64)):
        q = np.linalg.qr(rng.standard_normal((imm.n, imm.n)))[0]
        q[:, 0] *= np.sign(np.linalg.det(q))
        imms.append(Immersion(grid=imm.grid, F=imm.F @ q))
    for imm in imms:
        cache = fundamental_forms(imm)
        e = cache.e
        nu = normal_completion(e)
        gram = np.einsum("an...,bn...->...ab", nu, nu)
        assert np.max(np.abs(gram - np.eye(2))) < 1e-12
        assert np.max(np.abs(np.einsum("in...,an...->ia...", e, nu))) < 1e-12
        dets = np.linalg.det(np.moveaxis(np.concatenate([e, nu]), (0, 1), (-2, -1)))
        assert np.min(dets) > 0.99
        sizes = imm.grid.sizes
        nodes = [tuple(s // 8 for s in sizes)] + [tuple(int(rng.integers(s)) for s in sizes) for _ in range(4)]
        for node in nodes:
            at = (...,) + node
            assert np.max(np.abs(nu[1][at] - normal_rotate(AdaptedFrame(e[at], nu[at]), nu[0][at]))) < 1e-12


def test_torus_families_match_the_meshgrid_formula_bitwise():
    # the builders broadcast 1-D waves; a non-square grid shows a swapped axis
    a, b, eps, seed = 1.0, 0.6, 0.05, 7
    x, y = PeriodicGrid((24, 16)).meshgrid()
    base = np.stack([a * np.cos(x), a * np.sin(x), b * np.cos(y), b * np.sin(y)], axis=-1)
    assert make_product_torus(a, b, 24, 16).F.tobytes() == base.tobytes()
    rng = np.random.default_rng(seed)
    phi = []
    for _ in range(2):
        coeffs = rng.standard_normal((2, 2, 4))
        coeffs /= np.sum(np.abs(coeffs))
        out = np.zeros_like(x)
        for p in range(2):
            for q in range(2):
                cc, cs, sc, ss = coeffs[p, q]
                out += (
                    cc * np.cos(p * x) * np.cos(q * y)
                    + cs * np.cos(p * x) * np.sin(q * y)
                    + sc * np.sin(p * x) * np.cos(q * y)
                    + ss * np.sin(p * x) * np.sin(q * y)
                )
        phi.append(out[..., None])
    r1 = np.stack([np.cos(x), np.sin(x), 0 * x, 0 * x], axis=-1)
    r2 = np.stack([0 * x, 0 * x, np.cos(y), np.sin(y)], axis=-1)
    expect = base + eps * (phi[0] * r1 + phi[1] * r2)
    assert make_perturbed_torus(a, b, eps, seed, 24, 16).F.tobytes() == expect.tobytes()


def test_immersion_csv_round_trip(tmp_path):
    imm = make_product_torus(1.0, 0.5, 16)
    path = tmp_path / "torus.csv"
    save_immersion_csv(imm, path)
    back = load_immersion_csv(path, (16, 16))
    assert np.max(np.abs(back.F - imm.F)) < 1e-12
    with pytest.raises(ValueError):
        load_immersion_csv(path, (16, 32))


def test_immersion_csv_empty_or_header_only_rejected(tmp_path):
    for name, text in [("empty.csv", ""), ("header.csv", "x1,x2,x3\n")]:
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ValueError):
            load_immersion_csv(path, (16,))
