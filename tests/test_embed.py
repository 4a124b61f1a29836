import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from oracles import develop_whole, hyperboloid_point, write_obj_rows

from lorentz_embed.cli import _dump_json, write_obj
from lorentz_embed.metric import ConformalDiscMetric, make_hyperbolic
from lorentz_embed.grid import PolarGrid
from lorentz_embed.solver import DirichletProblem, solve_dirichlet
from lorentz_embed.embed import (
    Mesh,
    build_embedding,
    conformal_metric,
    develop,
    export_graph,
    minkowski_inner,
    _extrapolate_to_segment,
    _fft_resample,
)


class TestConformalMetric:
    def test_model_recovers_chart_metric(self, model_solve_128):
        gbar = conformal_metric(model_solve_128)
        g = model_solve_128.u.grid
        R = g.mesh()[0][: gbar.rows]
        assert np.max(np.abs(gbar.gb11 - 1.0)) <= 1e-12
        assert np.max(np.abs(gbar.gb12)) <= 1e-12
        assert np.max(np.abs(gbar.gb22 - np.sinh(R) ** 2)) <= 1e-9
        assert gbar.max_defect <= 1e-6

    def test_constant_scaling_law(self):
        # u = 1/(2C), K = -C: rescaled metric is C g, so curvature is -1
        sol = solve_dirichlet(DirichletProblem(make_hyperbolic(4.0), PolarGrid(128, 64, 1.5)))
        gbar = conformal_metric(sol)
        assert gbar.max_defect <= 1e-6

    def test_positive_definite(self, pinched_embedding_64):
        gbar = pinched_embedding_64[0]
        det = gbar.gb11 * gbar.gb22 - gbar.gb12**2
        assert np.all(gbar.gb11 > 0) and np.all(det > 0)

    def test_rejects_nonsolution(self, pinched_metric):
        # the constant start is admissible but not a solution: its rescaled
        # metric is not hyperbolic and the certificate must catch that
        from lorentz_embed.grid import ScalarField, chart_arrays, covariant_hessian
        from lorentz_embed.solver import AdmissibleField

        g = PolarGrid(48, 48, 3.0)
        b = 1.0 / (2.0 * pinched_metric.bounds.c2_of_radius(3.0))
        u = ScalarField(g, np.full(g.shape, b))
        hess = covariant_hessian(u, chart_arrays(pinched_metric, g))
        fake = AdmissibleField(
            u=u, hessian=hess, min_eigenvalue=1.0, rhs_min=2 * b,
            metric=pinched_metric, boundary_value=b, ball_radius=3.0,
            iterations=0,
        )
        with pytest.raises(ValueError, match="not hyperbolic"):
            conformal_metric(fake, check_tol=1e-2)

    def test_rejects_nonpositive_u(self, model_solve_128):
        from lorentz_embed.grid import ScalarField
        from lorentz_embed.solver import AdmissibleField

        g = model_solve_128.u.grid
        bad = model_solve_128.u.values.copy()
        bad[2, 2] = -0.1
        fake = AdmissibleField(
            u=ScalarField(g, bad), hessian=model_solve_128.hessian,
            min_eigenvalue=1.0, rhs_min=1.0, metric=model_solve_128.metric,
            boundary_value=0.5, ball_radius=2.0, iterations=0,
        )
        with pytest.raises(ValueError, match="positive"):
            conformal_metric(fake)

    @staticmethod
    def _edge_radial_derivative(F, h, order=6):
        # reference frame-field stencil: one-sided at both ends, centered between
        from lorentz_embed.grid import _fd_weights

        n = F.shape[0]
        half = order // 2
        npts = order + 1
        out = np.empty_like(F)
        w = _fd_weights(tuple(range(-half, half + 1)), 1) / h
        acc = np.zeros((n - 2 * half, F.shape[1]))
        for k, o in enumerate(range(-half, half + 1)):
            acc += w[k] * F[half + o : half + o + n - 2 * half]
        out[half : n - half] = acc
        for i in list(range(half)) + list(range(n - half, n)):
            lo = min(max(i - npts // 2, 0), n - npts)
            offs = tuple(range(lo - i, lo - i + npts))
            wo = _fd_weights(offs, 1) / h
            row = np.zeros(F.shape[1])
            for k, o in enumerate(offs):
                row += wo[k] * F[i + o]
            out[i] = row
        return out

    def test_frame_stencil_matches_edge_reference(self, pinched_embedding_64):
        from lorentz_embed.grid import radial_derivative

        gbar = pinched_embedding_64[0]
        for frame in (gbar.e11, gbar.e12, gbar.e22):
            got = radial_derivative(frame, gbar.grid.h1, order=6, across_pole=False)
            assert np.array_equal(got, self._edge_radial_derivative(frame, gbar.grid.h1))


class TestThetaResampling:
    @pytest.mark.parametrize("shape, factor", [
        ((50, 64), 2), ((50, 64), 4), ((50, 192), 4), ((3, 50, 64), 6), ((4, 9), 3),
    ])
    def test_matches_scipy_resample(self, shape, factor):
        from scipy.signal import resample

        F = np.random.default_rng(factor).standard_normal(shape)
        num = factor * shape[-1]
        assert np.array_equal(_fft_resample(F, num), resample(F, num, axis=-1))


class TestDevelopingMap:
    def test_model_matches_hyperboloid_chart(self, model_embedding, model_solve_128):
        _, dev, _, _ = model_embedding
        g = model_solve_128.u.grid
        R, T = g.mesh()
        expect = hyperboloid_point(R[: dev.rows], T[: dev.rows])
        assert np.max(np.abs(dev.points - expect)) <= 1e-6

    def test_pole_maps_to_apex(self, model_embedding, model_solve_128):
        _, dev, _, _ = model_embedding
        g = model_solve_128.u.grid
        apex = _extrapolate_to_segment(dev.points[:, 0, :], g.q1, [0.0])[0]
        assert np.allclose(apex, [0.0, 0.0, 1.0], atol=1e-9)

    def test_image_on_unit_hyperboloid(self, model_embedding):
        _, dev, _, _ = model_embedding
        norms = minkowski_inner(dev.points, dev.points)
        assert np.max(np.abs(norms + 1.0)) <= 1e-10

    def test_frames_in_isometry_group(self, model_embedding):
        _, dev, _, _ = model_embedding
        assert dev.eta_drift <= 1e-10

    def test_path_independence(self, model_embedding):
        _, dev, _, _ = model_embedding
        assert dev.path_defect <= 1e-5

    def test_cell_holonomy_cubic_envelope(self):
        # per-cell transport defect stays under C h^3 across resolutions
        for n in (48, 96):
            sol = solve_dirichlet(DirichletProblem(make_hyperbolic(1.0), PolarGrid(n, n, 2.0)))
            _, dev, _, _ = build_embedding(sol, l_obs=1.5)
            h = sol.u.grid.h1
            assert dev.cell_defect_max <= 1e-2 * h**3
        # and the summed defect stays within the holonomy budget
        assert dev.cell_defect_sum <= 1e-5

    @pytest.mark.parametrize("case", ["perturbed disc", "pinched ball"])
    def test_matches_whole_array_transport(self, case, pinched_embedding_64):
        # ring blocks and stage generators formed one at a time give the
        # whole-array developing map bit for bit
        if case == "pinched ball":
            gbar, dev = pinched_embedding_64[:2]
        else:
            metric = ConformalDiscMetric(1.0, 0.9, eps=0.3)
            sol = solve_dirichlet(DirichletProblem(metric, PolarGrid(40, 48, 0.8, kind="disc")))
            gbar = conformal_metric(sol)
            dev = develop(gbar)
        frames, points, path, cell_max, cell_sum, drift = develop_whole(gbar, dev.rows)
        assert np.array_equal(dev.frames, frames)
        assert np.array_equal(dev.points, points)
        assert (dev.path_defect, dev.cell_defect_max, dev.cell_defect_sum, dev.eta_drift) == (
            path, cell_max, cell_sum, drift)

    def test_develop_memory_budget(self):
        # the angular propagators and the frames, (rows, n2, 3, 3) each, and
        # one block of rings in flight: 1.23 MB measured on this disc, where
        # the stacked stage generators took 5.85 MB
        metric = ConformalDiscMetric(1.0, 0.9, eps=0.3)
        sol = solve_dirichlet(DirichletProblem(metric, PolarGrid(64, 64, 0.8, kind="disc")))
        gbar = conformal_metric(sol)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            develop(gbar)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 1.23e6


class TestAssembledEmbedding:
    def test_model_is_unit_imaginary_sphere(self, model_embedding, model_solve_128):
        _, dev, emb, _ = model_embedding
        g = model_solve_128.u.grid
        R, T = g.mesh()
        expect = hyperboloid_point(R[: emb.rows], T[: emb.rows])
        assert np.max(np.abs(emb.X - expect)) <= 1e-6

    def test_u_recovered_from_position(self, model_embedding, pinched_embedding_64):
        for bundle in (model_embedding, pinched_embedding_64):
            emb = bundle[2]
            err = np.abs(-0.5 * minkowski_inner(emb.X, emb.X) - emb.u_values)
            assert err.max() <= 1e-8

    def test_normal_identity(self, model_embedding):
        audit = model_embedding[3]
        assert audit.normal_identity_err <= 1e-6

    def test_normal_is_future_unit_timelike(self, pinched_embedding_64):
        emb = pinched_embedding_64[2]
        nn = minkowski_inner(emb.normal, emb.normal)
        assert np.max(np.abs(nn + 1.0)) <= 1e-8
        assert np.all(emb.normal[..., 2] > 0)
        assert audit_orthogonality(emb) <= 1e-8


def audit_orthogonality(emb):
    from lorentz_embed.embed import _CartesianCalc

    calc = _CartesianCalc(emb.grid, emb.rows)
    Xa, Xb = calc.grad_vec(emb.X)
    sl = slice(0, emb.rows - 4)
    return max(
        np.abs(minkowski_inner(Xa, emb.normal))[sl].max(),
        np.abs(minkowski_inner(Xb, emb.normal))[sl].max(),
    )


class TestVerification:
    def test_model_pullback_and_curvature(self, model_embedding):
        audit = model_embedding[3]
        assert audit.pullback_rel_err <= 1e-6
        assert audit.gauss_residual <= 1e-4
        assert audit.codazzi_residual <= 1e-2

    def test_model_umbilic(self, model_embedding):
        emb, audit = model_embedding[2], model_embedding[3]
        h11, h12, h22 = emb.shape
        G11, G12, G22 = emb.pullback
        sl = slice(0, audit.audit_rows)
        assert np.max(np.abs(h11 - G11)[sl]) <= 1e-5
        assert np.max(np.abs(h12 - G12)[sl]) <= 1e-5
        assert np.max(np.abs(h22 - G22)[sl]) <= 1e-5
        assert audit.a_norm_max == pytest.approx(math.sqrt(2.0), abs=1e-6)

    def test_model_pinching_saturated(self, model_embedding):
        audit = model_embedding[3]
        assert audit.pinching_saturation <= 1e-4
        assert audit.pinching_margin_cone > 0.0

    def test_pinched_margins_and_bounds(self, pinched_embedding_64):
        audit = pinched_embedding_64[3]
        assert audit.pullback_rel_err <= 1e-2
        assert audit.pinching_margin_cone >= -1e-6
        assert audit.pinching_margin_lower >= -1e-6
        assert audit.pinching_margin_upper >= -1e-6
        assert audit.gauss_residual <= 1e-2
        assert audit.codazzi_residual <= 1e-2
        assert np.isfinite(audit.a_norm_max)

    def test_failures_name_each_failed_gate(self, model_embedding, tmp_path):
        audit = model_embedding[3]
        assert audit.failures(1e-2, 1e-6) == []
        bad = dataclasses.replace(audit, pinching_margin_lower=-1e-3, codazzi_residual=math.nan)
        assert bad.failures(1e-2, 1e-6) == ["codazzi_residual is nan, not a finite number",
                                            "pinching margin (lower) -1.000e-03 < -1e-06"]
        # a NaN fails each gate it reaches, where every comparison with it is false
        nan = dataclasses.replace(audit, pullback_rel_err=math.nan, pinching_margin_cone=math.nan)
        assert nan.failures(1e-2, 1e-6) == [
            "pullback_rel_err is nan, not a finite number",
            "pinching_margin_cone is nan, not a finite number",
            f"pullback error nan at node {audit.worst_pullback_node} exceeds 0.01",
            "pinching margin (cone) nan < -1e-06"]
        path = tmp_path / "audit.json"  # audit.json is strict JSON: a NaN is written as null
        _dump_json(dataclasses.asdict(nan), str(path))
        payload = json.loads(path.read_text())
        assert payload["pullback_rel_err"] is None and payload["pinching_margin_cone"] is None
        assert payload["worst_pullback_node"] == list(audit.worst_pullback_node)

    def test_shape_form_stable_under_refinement(self, pinched_embedding_64,
                                                pinched_embedding_128):
        a64 = pinched_embedding_64[3].a_norm_max
        a128 = pinched_embedding_128[3].a_norm_max
        assert abs(a64 - a128) / a128 <= 0.02


class TestPerturbedConformal:
    def test_nonradial_chart_pipeline(self):
        # exercises the genuinely angle-dependent code paths: nonzero
        # off-diagonal coframe, nonzero radial connection coefficient,
        # conformal-chart distances in the localized audits
        from lorentz_embed.metric import ConformalDiscMetric
        metric = ConformalDiscMetric(1.0, 0.9, eps=0.2)
        grid = PolarGrid(48, 48, 0.7, kind="disc")
        sol = solve_dirichlet(DirichletProblem(metric, grid))
        osc = (sol.u.values.max(axis=1) - sol.u.values.min(axis=1)).max()
        assert osc > 1e-3  # genuinely non-radial
        gbar, dev, emb, audit = build_embedding(sol, l_obs=0.5)
        assert gbar.max_defect <= 1e-2
        assert audit.pullback_rel_err <= 1e-2
        assert audit.pinching_margin_cone >= -1e-6
        assert audit.pinching_margin_lower >= -1e-6
        assert audit.pinching_margin_upper >= -1e-6
        assert np.isfinite(audit.a_norm_max)


class TestEquivariance:
    def test_grid_rotation_conjugates_to_ambient_rotation(self, pinched_metric):
        n = 64
        sol0 = solve_dirichlet(DirichletProblem(pinched_metric, PolarGrid(n, n, 2.0)))
        gr = PolarGrid(n, n, 2.0, theta0=2 * math.pi / n)
        sol1 = solve_dirichlet(DirichletProblem(pinched_metric, gr))
        _, _, emb0, _ = build_embedding(sol0, l_obs=1.0)
        _, _, emb1, _ = build_embedding(sol1, l_obs=1.0)
        a = 2 * math.pi / n
        rot = np.array([
            [math.cos(a), -math.sin(a), 0.0],
            [math.sin(a), math.cos(a), 0.0],
            [0.0, 0.0, 1.0],
        ])
        expect = emb0.X @ rot.T
        assert np.max(np.abs(emb1.X - expect)) <= 1e-6


class TestExport:
    def test_model_cap_heights(self, model_embedding, model_solve_128):
        emb = model_embedding[2]
        g = model_solve_128.u.grid
        rows = int(np.searchsorted(g.q1, 1.0 + 1e-12))
        mesh = export_graph(emb, rows=rows)
        assert mesh.vertices.shape[0] == rows * g.n2 + 1
        expect = np.sqrt(1.0 + mesh.vertices[:, 0] ** 2 + mesh.vertices[:, 1] ** 2)
        assert np.max(np.abs(mesh.vertices[:, 2] - expect)) <= 1e-4

    def test_faces_consistently_oriented(self, model_embedding):
        mesh = export_graph(model_embedding[2])
        v = mesh.vertices
        for f in mesh.faces[:: max(1, len(mesh.faces) // 200)]:
            a, b, c = v[f[0]], v[f[1]], v[f[2]]
            area2 = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            assert area2 > 0.0  # counterclockwise seen from +x3

    def test_faces_match_ring_by_ring_loop(self, model_embedding):
        # the fan around the pole, then two triangles per quad, ring by ring
        mesh = export_graph(model_embedding[2], rows=4)
        n2 = model_embedding[2].grid.n2
        faces = [(0, 1 + j, 1 + (j + 1) % n2) for j in range(n2)]
        for i in range(3):
            for j in range(n2):
                jn = (j + 1) % n2
                v00, v01 = 1 + i * n2 + j, 1 + i * n2 + jn
                v10, v11 = 1 + (i + 1) * n2 + j, 1 + (i + 1) * n2 + jn
                faces += [(v00, v10, v11), (v00, v11, v01)]
        assert np.array_equal(mesh.faces, np.array(faces))

    def test_segment_weights_match_pointwise_lagrange(self):
        r = np.array([0.05, 0.15, 0.25, 0.35, 0.45])
        F = np.random.default_rng(3).standard_normal((5, 3))
        s_pts = np.linspace(0.05, 0.0, 5)
        W = []
        for s in s_pts:
            W.append([
                (s - r[1]) * (s - r[2]) * (s - r[3]) / ((r[0] - r[1]) * (r[0] - r[2]) * (r[0] - r[3])),
                (s - r[0]) * (s - r[2]) * (s - r[3]) / ((r[1] - r[0]) * (r[1] - r[2]) * (r[1] - r[3])),
                (s - r[0]) * (s - r[1]) * (s - r[3]) / ((r[2] - r[0]) * (r[2] - r[1]) * (r[2] - r[3])),
                (s - r[0]) * (s - r[1]) * (s - r[2]) / ((r[3] - r[0]) * (r[3] - r[1]) * (r[3] - r[2])),
            ])
        expect = np.array(W) @ F[:4]
        assert np.array_equal(_extrapolate_to_segment(F, r, s_pts), expect)

    def test_single_ring_rejected(self, model_embedding):
        with pytest.raises(ValueError, match="too few rings"):
            export_graph(model_embedding[2], rows=1)

    def test_obj_bytes_match_the_row_writer(self, tmp_path, model_embedding):
        rng = np.random.default_rng(7)
        vertices = rng.standard_normal((20001, 3)) * 10.0 ** rng.integers(-300, 300, (20001, 3))
        vertices[:4] = [[-0.0, 0.0, 1e-300], [-1e-300, 5e-324, -5e-324],
                        [1e300, -1.7976931348623157e308, 0.1], [1.0 / 3.0, -2.0, 12345.0]]
        faces = np.stack([np.arange(20000), np.arange(1, 20001), np.zeros(20000, int)], axis=-1)
        for mesh in (Mesh(vertices, faces), export_graph(model_embedding[2])):
            write_obj(mesh, tmp_path / "block.obj")
            write_obj_rows(mesh, tmp_path / "rows.obj")
            assert (tmp_path / "block.obj").read_bytes() == (tmp_path / "rows.obj").read_bytes()
            if mesh.faces is faces:
                lines = (tmp_path / "block.obj").read_text().splitlines()
                assert lines[0] == "v -0 0 1e-300"
                assert lines[-1] == "f 20000 20001 1"

    def test_obj_format(self, tmp_path, model_embedding):
        mesh = export_graph(model_embedding[2], rows=3)
        path = tmp_path / "cap.obj"
        write_obj(mesh, path)
        lines = path.read_text().splitlines()
        n_v = sum(1 for ln in lines if ln.startswith("v "))
        n_f = sum(1 for ln in lines if ln.startswith("f "))
        assert n_v == mesh.vertices.shape[0]
        assert n_f == mesh.faces.shape[0]
        first_face = next(ln for ln in lines if ln.startswith("f "))
        assert min(int(t) for t in first_face.split()[1:]) >= 1
