"""Generator, validation, manufactured-solution and persistence tests."""

import copy
import dataclasses

import numpy as np
import pytest

from nullfoliate import geodesic
from nullfoliate.errors import ConfigurationError, DatasetError
from nullfoliate.sphere import GeneratorPack, SpinField, interp_generator
from nullfoliate.tensors import (MetricRep, OneForm, SymTwoTensor, laplacian,
                                 mean)

from conftest import harmonic, log_omega_exact, plant_shear


@pytest.fixture(scope="module")
def mink():
    return geodesic.gen_minkowski(s_star=2.5, Lmax=8, n_s=24)


@pytest.fixture(scope="module")
def schw():
    return geodesic.gen_schwarzschild(0.1, s_star=2.5, Lmax=8, n_s=32)


def at_height(data, table, s):
    pack = GeneratorPack(data.s_nodes, [table])
    return interp_generator(pack, np.full(data.grid.shape, s))[0][0, 0]


class TestMinkowski:
    def test_flat_cone_expansion(self, mink):
        assert abs(at_height(mink, mink.trchi, 1.5) - 4.0 / 3.0) < 1e-13

    def test_curvature_vanishes(self, mink):
        assert np.max(np.abs(mink.rho)) == 0.0
        assert np.max(np.abs(mink.beta)) == 0.0

    def test_validates_to_machine_precision(self, mink):
        rep = geodesic.validate(mink)
        assert rep.worst() < 1e-12


class TestSchwarzschild:
    def test_sympy_eddington_finkelstein_oracle(self):
        """Null frame data of the outgoing EF cone, derived symbolically.

        With L = d_r affine and Lbar = -2 d_u - (1-2M/r) d_r, the frame
        contractions of the Christoffels and the Riemann tensor must give
        trchi' = 2/r, trchib' = -(2/r)(1-2M/r), zeta' = 0 and a rho' that
        closes the Gauss equation K = -trchi trchib/4 - rho with K = 1/r^2.
        """
        sympy = pytest.importorskip("sympy")
        u, r, th, ph, M = sympy.symbols("u r theta phi M", positive=True)
        x = [u, r, th, ph]
        f = 1 - 2 * M / r
        g = sympy.zeros(4, 4)
        g[0, 0] = -f
        g[0, 1] = g[1, 0] = 1
        g[2, 2] = r ** 2
        g[3, 3] = r ** 2 * sympy.sin(th) ** 2
        ginv = g.inv()
        Gam = [[[sum(ginv[a, d] * (sympy.diff(g[d, b], x[c])
                                   + sympy.diff(g[d, c], x[b])
                                   - sympy.diff(g[b, c], x[d])) / 2
                     for d in range(4)) for c in range(4)] for b in range(4)]
               for a in range(4)]

        L = sympy.Matrix([0, 1, 0, 0])
        Lb = sympy.Matrix([-2, -f, 0, 0])
        eA = [sympy.Matrix([0, 0, 1 / r, 0]),
              sympy.Matrix([0, 0, 0, 1 / (r * sympy.sin(th))])]

        def cov_dir(X, V):
            """(D_X V)^a for constant-component V along X (components vary)."""
            out = []
            for a in range(4):
                term = sum(X[c] * sympy.diff(V[a], x[c]) for c in range(4))
                term += sum(Gam[a][b][c] * X[c] * V[b]
                            for b in range(4) for c in range(4))
                out.append(sympy.simplify(term))
            return sympy.Matrix(out)

        def inner(V, W):
            return sympy.simplify((V.T * g * W)[0, 0])

        trchi = sum(inner(cov_dir(eA[A], L), eA[A]) for A in range(2))
        trchib = sum(inner(cov_dir(eA[A], Lb), eA[A]) for A in range(2))
        zeta = [inner(cov_dir(eA[A], L), Lb) / 2 for A in range(2)]
        assert sympy.simplify(trchi - 2 / r) == 0
        assert sympy.simplify(trchib + (2 / r) * f) == 0
        assert all(sympy.simplify(z) == 0 for z in zeta)

        # Gauss closure determines rho' = -2M/r^3 without fixing the Riemann
        # sign convention by hand
        rho = sympy.simplify(-sympy.Integer(1) / r ** 2 - trchi * trchib / 4)
        assert sympy.simplify(rho + 2 * M / r ** 3) == 0

    def test_reference_values(self, schw):
        assert abs(at_height(schw, schw.rho, 2.0) + 0.025) < 1e-12
        assert abs(at_height(schw, schw.trchib, 2.0) + 0.9) < 1e-12

    def test_gauss_closure_at_nodes(self, schw):
        """K = -trchi trchib / 4 - rho equals 1/s^2 on every node."""
        s = schw.s_nodes[:, None, None]
        K = -0.25 * schw.trchi * schw.trchib - schw.rho
        assert np.max(np.abs(K - 1.0 / s ** 2)) < 1e-11

    def test_mass_zero_reduces_to_minkowski(self, mink):
        d0 = geodesic.gen_schwarzschild(0.0, s_star=2.5, Lmax=8, n_s=24)
        for name in ["psi", "trchi", "zeta", "trchib", "chibhat", "beta",
                     "rho", "sigma", "betab"]:
            assert np.array_equal(getattr(d0, name), getattr(mink, name))

    def test_mass_range_guard(self):
        with pytest.raises(ConfigurationError):
            geodesic.gen_schwarzschild(0.3)
        with pytest.raises(ConfigurationError):
            geodesic.gen_schwarzschild(-0.1)

    def test_bianchi_residual(self, schw):
        """d_s rho' + (3/s) rho' = 0 holds exactly for rho' = -2M/s^3."""
        rep = geodesic.validate(schw)
        assert rep.worst("rho_bianchi") < 1e-10

    def test_validates(self, schw):
        rep = geodesic.validate(schw)
        assert rep.worst() < 1e-9


def _with_random_tables(data, seed):
    """data with every table of the geometry but psi replaced by random
    values of its dtype, so that no component is identically zero."""
    rng = np.random.default_rng(seed)
    for name in list(geodesic.GEOMETRY)[1:]:
        t = getattr(data, name)
        r = rng.standard_normal(t.shape)
        if np.iscomplexobj(t):
            r = r + 1j * rng.standard_normal(t.shape)
        setattr(data, name, r)
    return data


class TestSlab:
    @pytest.mark.parametrize("model", ["schwarzschild", "mms", "random"])
    def test_slab_is_geometry_at_the_nodes(self, model):
        """slab() equals geometry_at on the s-node heights bit for bit in
        all nine components: the barycentric read hits every node exactly."""
        if model == "mms":
            data, _ = geodesic.gen_manufactured(geodesic.MmsSpec(
                epsilon=1e-2, Lmax=8, n_s=24, profile_l=2, profile_m=2))
        else:
            data = geodesic.gen_schwarzschild(0.1, Lmax=8, n_s=24)
        if model == "random":
            data = _with_random_tables(data, 7)
        heights = np.broadcast_to(data.s_nodes[:, None, None],
                                  data.psi.shape)

        def parts(geometry):
            """Table name -> stored component, over every field of the
            Geometry type, so that no field goes unchecked."""
            out = {}
            for f in dataclasses.fields(geodesic.Geometry):
                x = getattr(geometry, f.name)
                if isinstance(x, MetricRep):
                    out["psi"] = x.psi
                elif isinstance(x, SymTwoTensor):
                    out["trchib"], out["chibhat"] = x.trace, x.hat_plus
                else:
                    out[f.name] = x.plus if isinstance(x, OneForm) else x
            return out

        slab, at = parts(data.slab()), parts(data.geometry_at(heights))
        assert set(slab) == set(at) == set(geodesic.GEOMETRY)
        for name, spin in geodesic.GEOMETRY.items():
            a, b = slab[name], at[name]
            assert a.spin == b.spin == spin
            assert a.samples.dtype == b.samples.dtype
            assert np.array_equal(a.samples, b.samples), name
            assert np.array_equal(a.samples, getattr(data, name)), name


def _bump(data, field):
    """1e-3 times a smooth bump in s (centred in the slab) times the samples
    of field on every s-node leaf."""
    s = data.s_nodes[:, None, None]
    return 1e-3 * np.exp(-((s - 1.75) / 0.3) ** 2) * field.samples


class TestValidateDetector:
    def test_corrupted_expansion_detected(self):
        data = geodesic.gen_minkowski(Lmax=8, n_s=24)
        data.trchi = data.trchi + 0.01
        rep = geodesic.validate(data)
        assert rep.worst("raychaudhuri") >= 1e-3

    def test_planted_torsion_lifts_zeta_transport(self, schw):
        """A smooth spin-1 bump in zeta' breaks d_s zeta' + trchi' zeta' =
        -beta'."""
        data = copy.copy(schw)
        data.zeta = schw.zeta + _bump(schw, harmonic(schw.grid, 2, 1, 1))
        rep = geodesic.validate(data)
        assert rep.worst("zeta_transport") >= 1e-5

    def test_planted_rho_lifts_mu_and_bianchi(self, schw):
        """A smooth bump in rho' breaks its Bianchi equation and, through
        mu' = -rho' - Div zeta', the mass-aspect transport."""
        data = copy.copy(schw)
        data.rho = schw.rho + np.real(_bump(schw, harmonic(schw.grid, 2, 0)))
        rep = geodesic.validate(data)
        assert rep.worst("mu_transport") >= 1e-5
        assert rep.worst("rho_bianchi") >= 1e-5

    def test_oneform_row_is_sized_by_its_magnitude(self, schw):
        """A smooth spin-1 bump in beta' is the whole codazzi_chi residual
        (trchi' is constant on each leaf and zeta' = 0), and validate sizes
        it as the residual suites do: |X| = sqrt(2) |X_m|."""
        data = copy.copy(schw)
        data.beta = schw.beta + _bump(schw, harmonic(schw.grid, 2, 1, 1))
        rep = geodesic.validate(data)
        want = np.sqrt(2.0) * np.max(np.abs(data.beta))
        assert rep.worst("codazzi_chi") == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("model", ["minkowski", "schwarzschild", "mms"])
    def test_new_rows_vanish_on_the_generators(self, model, mink, schw):
        if model == "mms":
            data, _ = geodesic.gen_manufactured(geodesic.MmsSpec(
                epsilon=1e-2, Lmax=8, n_s=24, profile_l=2, profile_m=2))
        else:
            data = {"minkowski": mink, "schwarzschild": schw}[model]
        rep = geodesic.validate(data)
        assert rep.worst("zeta_transport") <= 1e-12
        assert rep.worst("mu_transport") <= 1e-12


class TestManufactured:
    def test_zero_amplitude_degenerates(self):
        spec = geodesic.MmsSpec(epsilon=0.0, Lmax=8, n_s=24,
                                profile_l=2, profile_m=2)
        data, exact = geodesic.gen_manufactured(spec)
        assert np.max(np.abs(data.F1_table)) == 0.0
        assert np.max(np.abs(log_omega_exact(exact, 1.5))) == 0.0
        assert np.max(np.abs(exact.s_exact(1.5) - 1.5)) < 1e-14

    def test_forcing_self_consistency(self):
        """Interpolated forcing along the exact graph equals the level
        Laplacian of log Omega* (the construction is self-verifying)."""
        spec = geodesic.MmsSpec(epsilon=1e-2, Lmax=15, n_s=40,
                                profile_l=2, profile_m=2)
        data, exact = geodesic.gen_manufactured(spec)
        worst = 0.0
        for v in [1.05, 1.4, 1.75, 1.95]:
            s = exact.s_exact(v)
            F = data.source_at(s)[1].samples
            met = MetricRep(data.grid,
                            psi=SpinField.from_samples(data.grid, 0, np.log(s)))
            lof = SpinField.from_samples(data.grid, 0,
                                         log_omega_exact(exact, v))
            direct = laplacian(lof, met).samples
            worst = max(worst, np.max(np.abs(F - direct)))
        assert worst < 1e-11

    def test_log_omega_mean_free(self):
        spec = geodesic.MmsSpec(epsilon=1e-2, Lmax=15, n_s=40)
        data, exact = geodesic.gen_manufactured(spec)
        for v in [1.0, 1.33, 1.66, 2.0]:
            s = exact.s_exact(v)
            met = MetricRep(data.grid,
                            psi=SpinField.from_samples(data.grid, 0, np.log(s)))
            lof = SpinField.from_samples(data.grid, 0,
                                         log_omega_exact(exact, v))
            assert abs(mean(lof, met)) < 1e-13

    def test_graph_inversion(self):
        spec = geodesic.MmsSpec(epsilon=1e-2, Lmax=8, n_s=24,
                                profile_l=2, profile_m=2)
        data, exact = geodesic.gen_manufactured(spec)
        v = 1.47
        s = exact.s_exact(v)
        assert np.max(np.abs(exact.v_of_s(s) - v)) < 1e-13

    def test_stacked_graph_inversion_matches_leaves_bitwise(self):
        """A stack of leaves inverts as each leaf alone, bit for bit, though
        the leaves stop after different numbers of Newton steps."""
        spec = geodesic.MmsSpec(epsilon=1e-2, Lmax=8, n_s=24,
                                profile_l=2, profile_m=2)
        _, exact = geodesic.gen_manufactured(spec)
        shape = exact.G.shape
        leaves = np.stack([np.ones(shape), exact.s_exact(1.2),
                           np.full(shape, 1.6), exact.s_exact(1.9),
                           np.full(shape, 2.5)])
        stacked = exact.v_of_s(leaves)
        assert stacked.shape == leaves.shape
        for leaf, got in zip(leaves, stacked):
            assert np.array_equal(exact.v_of_s(leaf), got)
        assert np.array_equal(exact.v_of_s(leaves.reshape((5, 1) + shape)),
                              stacked.reshape((5, 1) + shape))

    def test_non_monotone_graph_rejected(self):
        with pytest.raises(ConfigurationError):
            geodesic.gen_manufactured(
                geodesic.MmsSpec(epsilon=0.5, Lmax=8, n_s=24))

    def test_background_validates(self):
        spec = geodesic.MmsSpec(epsilon=1e-2, Lmax=8, n_s=24,
                                profile_l=2, profile_m=2)
        data, _ = geodesic.gen_manufactured(spec)
        assert geodesic.validate(data).worst() < 1e-9


class TestShearFreeSlab:
    def test_planted_shear_is_refused_on_load(self, tmp_path):
        """The format holds no shear: a dataset that carries a chihat'
        table, nonzero here, is refused by name."""
        path = plant_shear(tmp_path / "ds")
        with pytest.raises(DatasetError, match="'chihat'"):
            geodesic.load(path)


class TestPersistence:
    def test_roundtrip_bit_identical(self, schw, tmp_path):
        path = tmp_path / "ds"
        geodesic.save(schw, path)
        back = geodesic.load(path)
        for name in ["psi", "trchi", "zeta", "trchib", "chibhat", "beta",
                     "rho", "sigma", "betab"]:
            assert np.array_equal(getattr(schw, name), getattr(back, name))
        assert np.array_equal(schw.s_nodes, back.s_nodes)

    def test_mms_roundtrip_restores_sidecar(self, tmp_path):
        spec = geodesic.MmsSpec(epsilon=1e-2, Lmax=8, n_s=24,
                                profile_l=2, profile_m=2)
        data, exact = geodesic.gen_manufactured(spec)
        geodesic.save(data, tmp_path / "mms")
        back = geodesic.load(tmp_path / "mms")
        assert back.exact is not None
        assert np.max(np.abs(back.exact.s_exact(1.6)
                             - exact.s_exact(1.6))) < 1e-15
        assert np.array_equal(back.forcing_F1, data.forcing_F1)

    def test_wrong_shape_rejected(self, mink, tmp_path):
        import json
        path = tmp_path / "bad"
        geodesic.save(mink, path)
        mpath = path / "manifest.json"
        manifest = json.loads(mpath.read_text())
        for entry in manifest["fields"]:
            if entry["name"] == "rho":
                entry["shape"][0] += 1
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match="rho"):
            geodesic.load(path)

    def test_truncated_array_rejected(self, mink, tmp_path):
        path = tmp_path / "trunc"
        geodesic.save(mink, path)
        target = path / "trchi.bin"
        raw = target.read_bytes()
        target.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(DatasetError, match="trchi"):
            geodesic.load(path)

    def test_malformed_manifest_rejected(self, mink, tmp_path):
        path = tmp_path / "mal"
        geodesic.save(mink, path)
        (path / "manifest.json").write_text("{not json")
        with pytest.raises(DatasetError, match="manifest"):
            geodesic.load(path)

    def test_non_finite_rejected(self, mink, tmp_path):
        path = tmp_path / "nan"
        geodesic.save(mink, path)
        arr = np.fromfile(path / "rho.bin", dtype="<f8")
        arr[3] = np.nan
        arr.tofile(path / "rho.bin")
        with pytest.raises(DatasetError, match="rho"):
            geodesic.load(path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetError):
            geodesic.load(tmp_path / "nowhere")
