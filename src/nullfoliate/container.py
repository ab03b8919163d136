"""On-disk container: manifest.json plus one raw little-endian array per field.

The kinds "geodesic_data" and "foliation" share the format.
read() validates everything and raises DatasetError; write() refuses
non-finite arrays and is atomic: the old manifest goes first, every file is
moved into place with os.replace, and the manifest comes last.  Each field
is validated by a full read, in blocks of at most _CHECK_BYTES, then mapped
read-only.  Files are only ever replaced, so a mapped field keeps its
values; a file that another program rewrites in place while a command runs
is outside the contract.  release() hands a mapped field's resident pages
back once a caller holds its own copy of what it reads.
"""

import json
import mmap
import os
from collections import namedtuple

import numpy as np

from .errors import ConfigurationError, DatasetError
from .sphere import build_grid

FORMAT_VERSION = 1
MANIFEST = "manifest.json"

_DTYPES = {"f64le": np.dtype("<f8"), "c128le": np.dtype("<c16")}

# kind -> (manifest key of the node list, {field: spin}, optional fields).
# The required fields of "geodesic_data", in this order, are the tables of
# geodesic.GEOMETRY
_KINDS = {
    "geodesic_data": ("s_nodes", {
        "psi": 0, "trchi": 0, "zeta": 1, "trchib": 0, "chibhat": 2,
        "beta": 1, "rho": 0, "sigma": 0, "betab": 1, "forcing_F1": 0,
        "mms_G": 0}, {"forcing_F1", "mms_G"}),
    "foliation": ("v_nodes", {"s": 0, "logOmega": 0}, set()),
}

# fields tabulated on one sphere; all others are (n_nodes, ntheta, nphi)
_SPHERE_FIELDS = {"mms_G"}

# bytes of a field that the finiteness check of read() holds at once
_CHECK_BYTES = 1 << 16


Contents = namedtuple("Contents", "grid nodes fields meta")


def _finite(arr):
    return bool(np.all(np.isfinite(arr.view(float) if np.iscomplexobj(arr)
                                   else arr)))


def replace_file(path, write):
    """Create or replace the file `path` atomically: write(file) fills a
    temporary file beside it in binary mode, which os.replace then moves
    into place.  A write that fails leaves the previous file as it was and
    removes the temporary one.  Every file the package writes goes through
    here."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            write(fh)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    os.replace(tmp, path)


def discard(path):
    """Make any container under `path` unloadable by removing its manifest."""
    try:
        os.remove(os.path.join(path, MANIFEST))
    except FileNotFoundError:
        pass


def write(path, kind, Lmax, nodes, arrays, meta=None):
    """Write a container of `kind` from {field: array}, in that field order.

    DatasetError, before anything is written, for an unknown or missing
    field or an array holding NaN or infinity.
    """
    node_key, spins, optional = _KINDS[kind]
    if set(arrays) - set(spins) or set(spins) - optional - set(arrays):
        raise DatasetError(f"{kind} container needs the fields "
                           f"{sorted(set(spins) - optional)}, got "
                           f"{sorted(arrays)}")
    arrays = {name: np.ascontiguousarray(arr) for name, arr in arrays.items()}
    for name, arr in arrays.items():
        if not _finite(arr):
            raise DatasetError(f"field {name!r} contains non-finite values")

    os.makedirs(path, exist_ok=True)
    discard(path)
    fields = []
    for name, arr in arrays.items():
        tag = "c128le" if np.iscomplexobj(arr) else "f64le"
        replace_file(os.path.join(path, f"{name}.bin"),
                     arr.astype(_DTYPES[tag], copy=False).tofile)
        fields.append({"name": name, "spin": spins[name],
                       "shape": list(arr.shape), "dtype": tag,
                       "file": f"{name}.bin"})
    manifest = {"format_version": FORMAT_VERSION, "kind": kind,
                "Lmax": int(Lmax), node_key: list(map(float, nodes)),
                "fields": fields}
    if meta is not None:
        manifest["meta"] = meta
    text = json.dumps(manifest, indent=1, sort_keys=True) + "\n"
    replace_file(os.path.join(path, MANIFEST),
                 lambda fh: fh.write(text.encode()))


def _read_field(path, entry, want):
    """One array file, checked against its manifest entry and shape `want`."""
    name, tag, fname = entry["name"], entry.get("dtype"), entry.get("file")
    shape = entry.get("shape")
    if tag not in _DTYPES:
        raise DatasetError(f"field {name!r}: unknown dtype tag {tag!r}")
    if not isinstance(fname, str) or os.path.basename(fname) != fname:
        raise DatasetError(f"field {name!r}: bad file name {fname!r}")
    if shape != list(want):
        raise DatasetError(f"field {name!r} has shape {shape}, "
                           f"manifest implies {list(want)}")
    fpath = os.path.join(path, fname)
    if not os.path.exists(fpath):
        raise DatasetError(f"missing array file for field {name!r}")
    dtype, count = _DTYPES[tag], int(np.prod(want))
    size = os.path.getsize(fpath)
    if size != count * dtype.itemsize:
        raise DatasetError(f"field {name!r}: expected {count} values of "
                           f"{dtype.itemsize} bytes, file holds {size} bytes")
    with open(fpath, "rb") as fh:
        buf = np.empty(min(count, _CHECK_BYTES // dtype.itemsize), dtype)
        for start in range(0, count, buf.size):
            block = buf[:min(buf.size, count - start)]
            fh.readinto(block)
            if not _finite(block):
                raise DatasetError(
                    f"field {name!r} contains non-finite values")
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    return np.ndarray(want, dtype, buffer=mapped)


def release(*arrays):
    """Hand back the resident pages of each array mapped by read(); its
    values stay readable and are read from its file again when next
    touched.  Any other array is left as it is."""
    for arr in arrays:
        while isinstance(arr, np.ndarray):
            arr = arr.base
        if isinstance(arr, mmap.mmap):
            arr.madvise(mmap.MADV_DONTNEED)


def read(path, kind, Lmax=None) -> Contents:
    """Load a container of `kind`, and of band limit `Lmax` if given.

    Checks format_version, kind, Lmax, the node list, that each required
    field is present once and no unknown one is, each field's shape against
    the node count and the grid, and finiteness; DatasetError otherwise.
    """
    node_key, spins, optional = _KINDS[kind]
    try:
        with open(os.path.join(path, MANIFEST)) as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise DatasetError(f"no {MANIFEST} under {str(path)!r}")
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise DatasetError(f"malformed manifest: {e}")
    if not isinstance(manifest, dict):
        raise DatasetError("malformed manifest: not a JSON object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise DatasetError(f"unsupported format_version {version!r}")
    if manifest.get("kind") != kind:
        raise DatasetError(f"not a {kind} container: "
                           f"kind={manifest.get('kind')!r}")
    L = manifest.get("Lmax")
    if type(L) is not int:
        raise DatasetError(f"manifest Lmax = {L!r} is not an integer")
    if Lmax is not None and L != Lmax:
        raise DatasetError(f"{kind} band limit {L} differs from {Lmax}")
    try:
        grid = build_grid(L)
    except ConfigurationError as err:
        raise DatasetError(f"manifest Lmax: {err}")
    try:
        nodes = np.asarray(manifest[node_key], dtype=float)
    except (KeyError, TypeError, ValueError):
        raise DatasetError(f"manifest lacks a numeric {node_key} list")
    if nodes.ndim != 1 or nodes.size == 0 or not _finite(nodes):
        raise DatasetError(f"manifest {node_key} is not a finite 1-d list")
    entries = manifest.get("fields")
    if not isinstance(entries, list):
        raise DatasetError("manifest lacks a fields list")

    fields = {}
    for entry in entries:
        name = entry.get("name") if isinstance(entry, dict) else None
        if not isinstance(name, str) or name not in spins:
            raise DatasetError(f"field {name!r} does not belong in a {kind} "
                               "container")
        if name in fields:
            raise DatasetError(f"field {name!r} is listed twice")
        want = grid.shape if name in _SPHERE_FIELDS \
            else (len(nodes),) + grid.shape
        fields[name] = _read_field(path, entry, want)
    missing = sorted(set(spins) - optional - set(fields))
    if missing:
        raise DatasetError(f"{kind} container misses fields {missing}")
    return Contents(grid, nodes, fields, manifest.get("meta", {}))
