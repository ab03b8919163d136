"""Residual and norm report containers with deterministic CSV/JSON emission."""

import json

import numpy as np


def _fmt(x):
    """Fixed 17-significant-digit float formatting (byte-stable reports)."""
    return format(float(x), ".17g")


def write_json(path, payload):
    """Write payload as JSON: sorted keys, indent 1, a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


class ResidualReport:
    """Named residual magnitudes, one row per equation per level."""

    def __init__(self, tolerance_used=None):
        self.rows = []  # (name, level, max_norm, l2_norm)
        self.tolerance_used = tolerance_used

    def add(self, name, level, max_norm, l2_norm):
        max_norm = float(max_norm)
        l2_norm = float(l2_norm)
        if not (np.isfinite(max_norm) and np.isfinite(l2_norm)):
            raise ValueError(f"non-finite residual for {name!r}")
        self.rows.append((str(name), float(level), max_norm, l2_norm))

    def add_levels(self, levels, sizes):
        """Rows level by level, equations in the order of `sizes`, which maps
        each name to (max_norms, l2_norms) with one value per level."""
        for i, level in enumerate(levels):
            for name, (max_norm, l2_norm) in sizes.items():
                self.add(name, level, max_norm[i], l2_norm[i])

    def equations(self):
        seen = []
        for name, *_ in self.rows:
            if name not in seen:
                seen.append(name)
        return seen

    def worst(self, name=None):
        vals = [r[2] for r in self.rows if name is None or r[0] == name]
        return max(vals) if vals else 0.0

    def pass_flags(self, tol=None):
        tol = self.tolerance_used if tol is None else tol
        return {name: self.worst(name) <= tol for name in self.equations()}

    def all_pass(self, tol=None):
        flags = self.pass_flags(tol)
        return all(flags.values()) if flags else True

    def to_csv(self, path):
        tol = self.tolerance_used
        flags = self.pass_flags() if tol is not None else {}
        with open(path, "w") as fh:
            fh.write("name,v,max_norm,L2_norm,pass\n")
            for name, v, mx, l2 in self.rows:
                ok = "" if tol is None else str(bool(flags[name])).lower()
                fh.write(f"{name},{_fmt(v)},{_fmt(mx)},{_fmt(l2)},{ok}\n")

    def summary(self):
        """Worst residual (formatted) and pass flag of each equation."""
        return {
            "worst": {name: _fmt(self.worst(name))
                      for name in self.equations()},
            "pass": self.pass_flags() if self.tolerance_used is not None
            else None,
        }

    def to_json(self, path):
        write_json(path, {**self.summary(),
                          "tolerance_used": self.tolerance_used})


class NormReport:
    """Values of the norm functionals and their constituent pieces."""

    def __init__(self):
        self.values = {}

    def set(self, name, value):
        value = float(value)
        if not np.isfinite(value) or value < -1e-300:
            raise ValueError(f"norm entry {name!r} is not finite and non-negative")
        self.values[str(name)] = value

    def get(self, name):
        return self.values[name]

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("name,value\n")
            for name in sorted(self.values):
                fh.write(f"{name},{_fmt(self.values[name])}\n")

    def to_json(self, path):
        write_json(path, {k: _fmt(v) for k, v in self.values.items()})
