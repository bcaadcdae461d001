"""Print how far apart two `variant_digests.py --keep` output directories are, per prior variant.

A numerical change cannot keep the digests; this reports its drift instead:

    python3 tools/variant_digests.py --keep before   # on the old commit
    python3 tools/variant_digests.py --keep after
    python3 tools/variant_drift.py before after

For each of the seven variants, over every model file of that variant in
BEFORE (trained or adapted), it prints the largest relative difference of the
bound totals in the model's trace CSV, of the arrays and scalars stored in the
model file, and of the `total` printed by `elbo`. The relative difference of
two arrays a (AFTER) and b (BEFORE) is max|a - b| / max|b|; 0 means identical.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bsplda import io as mio  # noqa: E402
from bsplda import model as mdl  # noqa: E402


def leaves(obj, name=""):
    """(dotted name, array) for every number a model holds, in field order."""
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from leaves(getattr(obj, f.name), f"{name}.{f.name}" if name else f.name)
    elif obj is not None and not isinstance(obj, str):
        yield name, np.asarray(obj, dtype=float)


def rel_diff(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shapes differ: {a.shape} and {b.shape}")
    if not a.size:
        return 0.0
    diff = float(np.max(np.abs(a - b)))
    scale = float(np.max(np.abs(b)))
    return diff / scale if scale else diff


def trace_totals(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    col = lines[0].split(",").index("total")
    return [float(line.split(",")[col]) for line in lines[1:]]


def printed_total(path):
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("total="):
            return float(line.split("=", 1)[1])
    raise ValueError(f"{path}: no total= line")


def model_drift(before, after):
    """Largest relative difference over the numbers of two model files, and where it is."""
    pairs = zip(leaves(mio.read_model_file(after)), leaves(mio.read_model_file(before)))
    return max((rel_diff(a, b), name) for (name, a), (_, b) in pairs)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    drift = {variant: [] for variant in mdl.VARIANTS}
    for model in sorted(args.before.glob("*.model")):
        other = args.after / model.name

        def diff(read, suffix):
            return rel_diff(read(other.with_suffix(suffix)), read(model.with_suffix(suffix)))

        drift[mio.read_model_file(model).variant].append((
            model.stem, diff(trace_totals, ".csv"), model_drift(model, other),
            diff(printed_total, ".elbo"),
        ))
    print(f"{'variant':27s} {'models':>6s} {'trace':>9s} {'model':>9s} {'elbo':>9s}  "
          "largest model difference in")
    for variant, rows in drift.items():
        if not rows:
            print(f"{variant:27s} {0:6d}  (no model file)")
            continue
        trace = max(r[1] for r in rows)
        model, where = max((r[2][0], f"{r[0]}: {r[2][1]}") for r in rows)
        elbo = max(r[3] for r in rows)
        print(f"{variant:27s} {len(rows):6d} {trace:9.2e} {model:9.2e} {elbo:9.2e}  "
              f"{where if model else '-'}")


if __name__ == "__main__":
    main()
