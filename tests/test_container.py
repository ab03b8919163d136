"""The manifest-plus-raw-arrays container: round trips, checks on load, atomicity."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from nullfoliate import cli, container, geodesic, reports, solver
from nullfoliate.errors import DatasetError
from nullfoliate.sphere import build_grid

LMAX = 4
SHAPE = build_grid(LMAX).shape
KINDS = sorted(container._KINDS)


def _layout(kind):
    """(node key, required field names, optional field names) of a kind."""
    node_key, spins, optional = container._KINDS[kind]
    return node_key, [n for n in spins if n not in optional], sorted(optional)


def _field_shape(name, n_nodes):
    return SHAPE if name in container._SPHERE_FIELDS else (n_nodes,) + SHAPE


def _finite_array(shape, dtype):
    return arrays(dtype, shape, elements=(
        st.floats(allow_nan=False, allow_infinity=False) if dtype == np.float64
        else st.complex_numbers(allow_nan=False, allow_infinity=False)))


@st.composite
def containers(draw):
    """A kind, its node list and random finite f64/c128 fields for it."""
    kind = draw(st.sampled_from(KINDS))
    _, required, optional = _layout(kind)
    n_nodes = draw(st.integers(1, 3))
    nodes = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                          min_size=n_nodes, max_size=n_nodes))
    names = required + [n for n in optional if draw(st.booleans())]
    fields = {}
    for name in names:
        dtype = draw(st.sampled_from([np.float64, np.complex128]))
        fields[name] = draw(_finite_array(_field_shape(name, n_nodes), dtype))
    return kind, nodes, fields


def _write_valid(path, kind, n_nodes=2, seed=0):
    _, required, optional = _layout(kind)
    rng = np.random.default_rng(seed)
    fields = {name: rng.standard_normal(_field_shape(name, n_nodes))
              for name in required + optional}
    container.write(path, kind, LMAX, np.linspace(1.0, 2.0, n_nodes), fields)
    return fields


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(containers())
    def test_random_fields_come_back_bit_exact(self, case):
        kind, nodes, fields = case
        with tempfile.TemporaryDirectory() as tmp:
            container.write(tmp, kind, LMAX, nodes, fields,
                            meta={"note": "x"})
            back = container.read(tmp, kind, Lmax=LMAX)
        assert back.grid.Lmax == LMAX
        assert back.nodes.tobytes() == np.asarray(nodes, float).tobytes()
        assert back.meta == {"note": "x"}
        assert list(back.fields) == list(fields)
        for name, arr in fields.items():
            assert back.fields[name].dtype == arr.dtype
            assert back.fields[name].tobytes() == arr.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(containers(), st.data())
    def test_non_finite_array_is_refused_on_write(self, case, data):
        kind, nodes, fields = case
        name = data.draw(st.sampled_from(sorted(fields)))
        arr = fields[name]
        flat = data.draw(st.integers(0, arr.size - 1))
        bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        if np.iscomplexobj(arr) and data.draw(st.booleans()):
            bad = complex(0.0, bad)
        arr.flat[flat] = bad
        with tempfile.TemporaryDirectory() as tmp:
            with pytest.raises(DatasetError, match=name):
                container.write(tmp, kind, LMAX, nodes, fields)
            assert os.listdir(tmp) == []

    def test_unknown_or_missing_field_is_refused_on_write(self, tmp_path):
        with pytest.raises(DatasetError, match="logOmega"):
            container.write(tmp_path, "foliation", LMAX, [1.0],
                            {"s": np.ones((1,) + SHAPE)})
        with pytest.raises(DatasetError, match="extra"):
            container.write(tmp_path, "foliation", LMAX, [1.0],
                            {"s": np.ones((1,) + SHAPE),
                             "logOmega": np.zeros((1,) + SHAPE),
                             "extra": np.zeros((1,) + SHAPE)})


class _Interrupted(BaseException):
    """Stands in for a kill or KeyboardInterrupt in the middle of a write."""


def _half_then_interrupted(fh):
    fh.write(b"half")
    raise _Interrupted()


class TestAtomicWrite:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("overwrite", [False, True])
    def test_interrupted_write_never_loads(self, kind, overwrite, tmp_path,
                                           monkeypatch):
        """Stop the write after k of its file moves, for every k (the last
        move is the manifest's); what is left must raise DatasetError."""
        _, required, optional = _layout(kind)
        n_moves = len(required) + len(optional) + 1
        real_replace = os.replace
        for k in range(n_moves):
            path = tmp_path / f"{kind}-{k}"
            if overwrite:
                _write_valid(path, kind, seed=1)
                container.read(path, kind)
            moves = []

            def replace(src, dst):
                if len(moves) == k:
                    raise _Interrupted()
                moves.append(dst)
                real_replace(src, dst)

            monkeypatch.setattr(os, "replace", replace)
            with pytest.raises(_Interrupted):
                _write_valid(path, kind, n_nodes=3, seed=2)
            monkeypatch.setattr(os, "replace", real_replace)
            assert len(moves) == k
            with pytest.raises(DatasetError, match="manifest"):
                container.read(path, kind)

    def test_overwrite_keeps_foreign_files(self, tmp_path):
        (tmp_path / "trace.csv").write_text("window,n,M_n,Delta_n,kappa\n")
        _write_valid(tmp_path, "foliation", seed=1)
        _write_valid(tmp_path, "foliation", seed=2)
        assert (tmp_path / "trace.csv").exists()
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]


    @pytest.mark.parametrize("write", [
        lambda p: reports.write_csv(p, ("name", "value"),
                                    [("a", 1.0), ("b", 2.0), ("c", None)]),
        lambda p: reports.write_json(p, {"a": "1", "b": object()}),
        lambda p: container.replace_file(p, _half_then_interrupted),
    ], ids=["csv", "json", "interrupted"])
    def test_failed_write_keeps_the_previous_file(self, write, tmp_path):
        """A report write that fails midway, on a value it cannot format or
        interrupted after some bytes, leaves the file it would replace as
        it was and no temporary file."""
        path = tmp_path / "report"
        reports.write_json(path, {"O": "1.5"})
        before = path.read_bytes()
        with pytest.raises((TypeError, _Interrupted)):
            write(path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["report"]


class TestMappedFields:
    @pytest.mark.parametrize("kind", KINDS)
    def test_fields_are_read_only_maps_of_their_files(self, kind, tmp_path):
        """Every field comes back read-only, bit-equal to its array file."""
        _write_valid(tmp_path, kind)
        back = container.read(tmp_path, kind)
        manifest = json.loads((tmp_path / container.MANIFEST).read_text())
        for entry in manifest["fields"]:
            arr = back.fields[entry["name"]]
            raw = np.fromfile(tmp_path / entry["file"],
                              dtype=container._DTYPES[entry["dtype"]])
            assert not arr.flags.writeable
            assert arr.tobytes() == raw.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                arr.flat[0] = 0.0

    def test_released_fields_keep_their_values(self, tmp_path):
        """release() hands back a mapped field's pages; the field reads the
        same bytes afterwards, and an array not mapped is left alone."""
        _write_valid(tmp_path, "foliation")
        back = container.read(tmp_path, "foliation")
        kept = {name: arr.copy() for name, arr in back.fields.items()}
        plain = np.ones(3)
        container.release(*back.fields.values(), back.fields["s"][1:],
                          plain)
        for name, arr in back.fields.items():
            assert arr.tobytes() == kept[name].tobytes()
        assert np.array_equal(plain, np.ones(3))

    def test_rewrite_leaves_loaded_tables_alone(self, tmp_path):
        """save() replaces each file with os.replace, so a table loaded
        before a rewrite of its directory keeps the old file's values."""
        geodesic.save(geodesic.gen_schwarzschild(0.1, Lmax=LMAX, n_s=8),
                      tmp_path)
        before = geodesic.load(tmp_path).arrays()
        kept = {name: arr.copy() for name, arr in before.items()}
        geodesic.save(geodesic.gen_schwarzschild(0.2, Lmax=LMAX, n_s=8),
                      tmp_path)
        after = geodesic.load(tmp_path).arrays()
        assert not np.array_equal(after["rho"], kept["rho"])
        for name, arr in before.items():
            assert arr.tobytes() == kept[name].tobytes()


def _edit_manifest(path, edit):
    mpath = os.path.join(path, "manifest.json")
    with open(mpath) as fh:
        manifest = json.load(fh)
    edit(manifest)
    with open(mpath, "w") as fh:
        json.dump(manifest, fh)


def _drop_field(name):
    def edit(manifest):
        manifest["fields"] = [e for e in manifest["fields"]
                              if e["name"] != name]
    return edit


class TestChecksOnLoad:
    @pytest.mark.parametrize("kind", KINDS)
    def test_wrong_format_version(self, kind, tmp_path):
        _write_valid(tmp_path, kind)
        _edit_manifest(tmp_path, lambda m: m.update(format_version=2))
        with pytest.raises(DatasetError, match="format_version"):
            container.read(tmp_path, kind)

    @pytest.mark.parametrize("kind", KINDS)
    def test_wrong_kind(self, kind, tmp_path):
        _write_valid(tmp_path, kind)
        other = next(k for k in KINDS if k != kind)
        with pytest.raises(DatasetError, match="kind"):
            container.read(tmp_path, other)

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_required_field_is_checked(self, kind, tmp_path):
        _, required, _ = _layout(kind)
        for name in required:
            path = tmp_path / name
            _write_valid(path, kind)
            _edit_manifest(path, _drop_field(name))
            with pytest.raises(DatasetError, match=name):
                container.read(path, kind)

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_field_listed_twice_is_refused(self, kind, tmp_path):
        """A second entry for a field, here naming the file of another field
        of its shape, is refused by name; the last entry used to win."""
        _write_valid(tmp_path, kind)

        first, other = [e for e in json.loads(
            (tmp_path / "manifest.json").read_text())["fields"]
            if len(e["shape"]) == 3][:2]
        _edit_manifest(tmp_path, lambda m: m["fields"].append(
            dict(first, file=other["file"])))
        with pytest.raises(DatasetError,
                           match=f"'{first['name']}' is listed twice"):
            container.read(tmp_path, kind)

    def test_band_limit_checked_against_the_grid(self, tmp_path):
        _write_valid(tmp_path, "foliation")
        with pytest.raises(DatasetError, match="band limit"):
            container.read(tmp_path, "foliation", Lmax=LMAX + 1)
        _edit_manifest(tmp_path, lambda m: m.update(Lmax=2))
        with pytest.raises(DatasetError, match="Lmax"):
            container.read(tmp_path, "foliation")

    def test_sphere_field_shape_checked(self, tmp_path):
        """mms_G holds one sphere; a transposed shape of the same size used
        to load silently."""
        _write_valid(tmp_path, "geodesic_data")

        def transpose(manifest):
            for entry in manifest["fields"]:
                if entry["name"] == "mms_G":
                    entry["shape"] = entry["shape"][::-1]
        _edit_manifest(tmp_path, transpose)
        with pytest.raises(DatasetError, match="mms_G"):
            container.read(tmp_path, "geodesic_data")

    @pytest.mark.parametrize("change", ["one value short", "one value long",
                                        "3 bytes long"])
    def test_file_size_is_exact(self, change, tmp_path):
        """A field file holds exactly the bytes of its values: a missing or
        extra value is refused, and so is a partial one at the end."""
        _write_valid(tmp_path, "geodesic_data")
        path = tmp_path / "psi.bin"
        raw = path.read_bytes()
        path.write_bytes({"one value short": raw[:-8],
                          "one value long": raw + raw[:8],
                          "3 bytes long": raw + b"abc"}[change])
        with pytest.raises(DatasetError, match="field 'psi': expected"):
            container.read(tmp_path, "geodesic_data")

    def test_file_outside_the_directory_rejected(self, tmp_path):
        _write_valid(tmp_path / "c", "foliation")

        def escape(manifest):
            manifest["fields"][0]["file"] = "../elsewhere.bin"
        _edit_manifest(tmp_path / "c", escape)
        with pytest.raises(DatasetError, match="file name"):
            container.read(tmp_path / "c", "foliation")

    @pytest.mark.parametrize("name", ["rho", "chibhat"])
    @pytest.mark.parametrize("where", ["first", "block edge", "last"])
    def test_finiteness_is_checked_in_every_block(self, name, where,
                                                  tmp_path, monkeypatch):
        """With blocks of 64 bytes a field spans many blocks; one NaN in
        the first block, at the start of the second, or in the last value
        (the real part of rho, the imaginary part of the complex chibhat)
        is found, and the untouched container loads."""
        monkeypatch.setattr(container, "_CHECK_BYTES", 64)
        rng = np.random.default_rng(3)
        fields = {n: rng.standard_normal(_field_shape(n, 3))
                  for n in _layout("geodesic_data")[1]}
        fields["chibhat"] = fields["chibhat"] + 1j * fields["rho"]
        container.write(tmp_path, "geodesic_data", LMAX, [1.0, 1.5, 2.0],
                        fields)
        container.read(tmp_path, "geodesic_data")
        size = fields[name].itemsize
        index = {"first": 0, "block edge": 64 // size,
                 "last": fields[name].size - 1}[where]
        with open(tmp_path / f"{name}.bin", "r+b") as fh:
            fh.seek(index * size + size - 8)
            fh.write(np.array([np.nan], dtype="<f8").tobytes())
        with pytest.raises(DatasetError,
                           match=f"field '{name}' contains non-finite"):
            container.read(tmp_path, "geodesic_data")


@pytest.fixture
def flat_pair(tmp_path):
    """A small flat-cone dataset and its exact foliation s = v on disk."""
    data = geodesic.gen_minkowski(Lmax=LMAX, n_s=8)
    geodesic.save(data, tmp_path / "ds")
    v = np.linspace(1.0, 1.25, 5)
    fol = solver.Foliation(data, v, v[:, None, None] * np.ones(SHAPE),
                           np.zeros((5,) + SHAPE))
    fol.save(tmp_path / "fol")
    return data, tmp_path / "ds", tmp_path / "fol"


class TestFoliationLoader:
    def _verify(self, ds, fol, out):
        return cli.main(["verify", "--data", str(ds), "--foliation", str(fol),
                         "--out", str(out)])

    def test_missing_logomega_exits_5(self, flat_pair, tmp_path):
        _, ds, fol = flat_pair
        _edit_manifest(fol, _drop_field("logOmega"))
        assert self._verify(ds, fol, tmp_path / "rep") == 5

    def test_missing_lmax_exits_5(self, flat_pair, tmp_path):
        _, ds, fol = flat_pair
        _edit_manifest(fol, lambda m: m.pop("Lmax"))
        assert self._verify(ds, fol, tmp_path / "rep") == 5

    def test_shape_against_node_count(self, flat_pair):
        data, _, fol = flat_pair
        _edit_manifest(fol, lambda m: m.update(v_nodes=m["v_nodes"][:-1]))
        with pytest.raises(DatasetError, match="shape"):
            solver.Foliation.load(fol, data)

    def test_wrong_format_version(self, flat_pair):
        data, _, fol = flat_pair
        _edit_manifest(fol, lambda m: m.update(format_version=0))
        with pytest.raises(DatasetError, match="format_version"):
            solver.Foliation.load(fol, data)
