"""Correctness checks the benchmark runs outside its timed region.

Each check is a pure function of outputs the workload produced and returns
``(ok, detail)``, so the benchmark's own test can hand it a corrupted output
and see it fail. ``reference_logits`` is an independent numpy forward pass that
never calls ``autodiff.conv3d``.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# C1's end-to-end tolerance: |analytic - numeric| / max(1, |numeric|)
GRAD_TOL = 1e-3
GRAD_EPS = 1e-5
LOGIT_TOL = 1e-9


# ---------------------------------------------------------------------------
# train: gradients and loss history
# ---------------------------------------------------------------------------

def numeric_gradients(loss_fn, params: dict, coords: dict) -> dict:
    """Central differences of ``loss_fn()`` at ``coords[name]`` (flat indices)
    of each parameter tensor, perturbing the tensor in place."""
    out = {}
    for name, indices in coords.items():
        flat = params[name].values.reshape(-1)
        values = []
        for i in indices:
            orig = flat[i]
            flat[i] = orig + GRAD_EPS
            up = float(loss_fn().values[0])
            flat[i] = orig - GRAD_EPS
            down = float(loss_fn().values[0])
            flat[i] = orig
            values.append((up - down) / (2 * GRAD_EPS))
        out[name] = np.array(values)
    return out


def check_gradients(analytic: dict, numeric: dict):
    """Every sampled coordinate within the C1 tolerance."""
    if analytic.keys() != numeric.keys() or not numeric:
        return False, "parameter groups differ between analytic and numeric gradients"
    worst, where = 0.0, None
    for name, num in numeric.items():
        ana = np.asarray(analytic[name], dtype=np.float64)
        if ana.shape != num.shape or not np.all(np.isfinite(ana)):
            return False, f"{name}: analytic gradient malformed"
        err = float(np.max(np.abs(ana - num) / np.maximum(1.0, np.abs(num))))
        if err > worst:
            worst, where = err, name
    ok = worst < GRAD_TOL
    return ok, f"max rel err {worst:.2e} at {where} over {len(numeric)} groups (<{GRAD_TOL:g})"


def check_loss_histories(histories):
    """Loss histories are finite and identical for every repetition of the
    same training call."""
    if not histories or not histories[0]:
        return False, "no loss history"
    first = histories[0]
    if not all(math.isfinite(v) for v in first):
        return False, f"non-finite loss in {first}"
    for k, h in enumerate(histories[1:], start=1):
        if h != first:
            return False, f"repetition {k} history {h} differs from {first}"
    return True, f"{len(histories)} identical finite histories {first}"


# ---------------------------------------------------------------------------
# infer: logits against an independent reference
# ---------------------------------------------------------------------------

def _conv_ref(x, w, b, pad):
    xp = np.pad(x, ((0, 0),) + tuple((p, p) for p in pad))
    windows = sliding_window_view(xp, w.shape[2:], axis=(1, 2, 3))
    return np.einsum("cdhwijk,ocijk->odhw", windows, w, optimize=True) + b[:, None, None, None]


def reference_logits(model, x: np.ndarray) -> np.ndarray:
    """Plain-branch logits of ``model`` for one (C, time, sub, ant) sample,
    with a direct einsum convolution and no autodiff graph."""
    kernel = model.kernel_dims
    pad = tuple(k // 2 for k in kernel)
    h = x
    for blk in model.blocks:
        a = np.maximum(_conv_ref(h, blk.conv1_w.values, blk.conv1_b.values, pad), 0.0)
        a = _conv_ref(a, blk.conv2_w.values, blk.conv2_b.values, pad)
        shortcut = h if blk.proj_w is None else _conv_ref(
            h, blk.proj_w.values, blk.proj_b.values, (0, 0, 0))
        h = np.maximum(a + shortcut, 0.0)[:, ::2]
    pooled = h.reshape(h.shape[0], -1).mean(axis=1)
    return model.clf_w.values @ pooled + model.clf_b.values


def check_logits(logits, reference):
    """Logits match the reference within LOGIT_TOL relative to their scale."""
    logits = np.asarray(logits, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if logits.shape != reference.shape:
        return False, f"shape {logits.shape} vs reference {reference.shape}"
    scale = max(1.0, float(np.max(np.abs(reference))))
    err = float(np.max(np.abs(logits - reference))) / scale
    return err < LOGIT_TOL, f"max rel diff {err:.2e} over {len(reference)} samples (<{LOGIT_TOL:g})"


def check_repeatable(outputs: dict):
    """Every key's repeated outputs are bit-identical to its first output."""
    for key, values in outputs.items():
        for v in values[1:]:
            if not np.array_equal(v, values[0]):
                return False, f"{key}: repeated call gave a different output"
    return True, f"{sum(len(v) for v in outputs.values())} outputs over {len(outputs)} inputs"


def check_agreements(agreements: dict, n_shifts: int):
    """Shift agreements are fractions k/n_shifts with k >= 1 (the unshifted
    window always agrees with itself), equal across repetitions."""
    for key, values in agreements.items():
        a = values[0]
        if any(v != a for v in values) or not 1 <= round(a * n_shifts) <= n_shifts \
                or abs(a * n_shifts - round(a * n_shifts)) > 1e-9:
            return False, f"{key}: agreements {values[:3]} are not one k/{n_shifts}"
    return True, f"{len(agreements)} streams"


# ---------------------------------------------------------------------------
# prep: exit codes, round trips, digest
# ---------------------------------------------------------------------------

def check_exit_codes(codes):
    bad = [c for c in codes if c != 0]
    return not bad, f"{len(codes)} CLI calls, non-zero exits {bad}"


def check_round_trips(pairs):
    """(name, original bytes, bytes re-saved after loading) are identical."""
    for name, original, resaved in pairs:
        if original != resaved:
            return False, f"{name}: re-saved file differs from the original"
    return bool(pairs), f"{len(pairs)} files re-saved byte-identical"


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes under ``root``."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def check_digests(digests):
    """All passes over the same inputs wrote identical bytes."""
    distinct = set(digests)
    return len(distinct) == 1, f"{len(digests)} passes, {len(distinct)} distinct digest(s)"
