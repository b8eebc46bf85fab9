"""What several test modules share, written once.

- ``naive_conv3d``: the looped correlation oracle that the conv tests and
  acceptance criterion C3 check ``autodiff.conv3d`` against.
- ``TINY`` and ``tiny_model``: the small network the model and training tests
  build, with any ``NetworkConfig`` field overridden.
- ``write_grid``: the one place outside the volume-list API's own tests that
  builds ``Volume3D``s; it writes them as one VOL1 file. When VOL1 holds one
  array per window instead of a list of volumes, only this function changes.
"""

import numpy as np

from stwnn import dataio, network as net
from stwnn.volumes import Volume3D


def naive_conv3d(xv, kv, bv, stride, pad):
    """Direct correlation sum, looped over every output and kernel coordinate."""
    c_in, d, h, w = xv.shape
    c_out, _, kd, kh, kw = kv.shape
    sd, sh, sw = stride
    pd, ph, pw = pad
    xp = np.pad(xv, ((0, 0), (pd, pd), (ph, ph), (pw, pw)))
    od = (d + 2 * pd - kd) // sd + 1
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    out = np.zeros((c_out, od, oh, ow))
    for co in range(c_out):
        for i in range(od):
            for j in range(oh):
                for l in range(ow):
                    acc = bv[co]
                    for a in range(kd):
                        for b in range(kh):
                            for c in range(kw):
                                for ci in range(c_in):
                                    acc += (kv[co, ci, a, b, c]
                                            * xp[ci, i * sd + a, j * sh + b, l * sw + c])
                    out[co, i, j, l] = acc
    return out


TINY = dict(n_classes=2, in_channels=2, block_channels=(2,), feature_dim=3, seed=5)


def tiny_model(**overrides):
    return net.build_model(net.NetworkConfig(**{**TINY, **overrides}))


def write_grid(path, rows, shape, rng):
    """Write one VOL1 file holding a volume per (segment, scale, label) row, in
    row order, and return the volumes. Each volume's data is
    ``rng.standard_normal(shape)``, drawn in row order; ``shape`` may instead be
    a list of one shape per row."""
    shapes = shape if isinstance(shape, list) else [shape] * len(rows)
    volumes = [Volume3D(data=rng.standard_normal(s), scale=scale, source_segment=segment,
                        label=label)
               for (segment, scale, label), s in zip(rows, shapes)]
    dataio.save_volumes(path, volumes)
    return volumes
