"""Residual and norm report containers with deterministic CSV/JSON emission."""

import json

import numpy as np

from .container import replace_file


def _fmt(x):
    """Fixed 17-significant-digit float formatting (byte-stable reports)."""
    return format(float(x), ".17g")


def write_csv(path, header, rows):
    """Write a CSV report atomically (container.replace_file): the header,
    then one line per row, each str or int cell written by str and every
    other cell, a number, by _fmt."""
    text = "".join(",".join(str(c) if isinstance(c, (str, int)) else _fmt(c)
                            for c in row) + "\n" for row in [header, *rows])
    replace_file(path, lambda fh: fh.write(text.encode()))


def write_json(path, payload):
    """Write payload as JSON atomically (container.replace_file): sorted
    keys, indent 1, a final newline."""
    text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    replace_file(path, lambda fh: fh.write(text.encode()))


class ResidualReport:
    """Named residual magnitudes, one row per equation per level."""

    def __init__(self, tolerance):
        self.rows = []  # (name, level, max_norm, l2_norm)
        self.tolerance = tolerance

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
        """The equation names, in the order of their first rows."""
        return list(dict.fromkeys(row[0] for row in self.rows))

    def worst(self, name=None):
        vals = [r[2] for r in self.rows if name is None or r[0] == name]
        return max(vals) if vals else 0.0

    def pass_flags(self):
        return {name: self.worst(name) <= self.tolerance
                for name in self.equations()}

    def all_pass(self):
        return all(self.pass_flags().values())

    def to_csv(self, path):
        flags = {name: str(ok).lower()
                 for name, ok in self.pass_flags().items()}
        write_csv(path, ("name", "v", "max_norm", "L2_norm", "pass"),
                  [(*row, flags[row[0]]) for row in self.rows])

    def summary(self):
        """Worst residual (formatted) and pass flag of each equation."""
        return {
            "worst": {name: _fmt(self.worst(name))
                      for name in self.equations()},
            "pass": self.pass_flags(),
        }

    def to_json(self, path):
        write_json(path, {**self.summary(),
                          "tolerance_used": self.tolerance})


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
        write_csv(path, ("name", "value"), sorted(self.values.items()))

    def to_json(self, path):
        write_json(path, {k: _fmt(v) for k, v in self.values.items()})
