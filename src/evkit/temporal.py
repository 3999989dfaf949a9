"""Forward-only residual ConvLSTM over multi-scale feature maps.

One recurrent cell per feature scale (tags 3/4/5 for backbone strides
8/16/32).  Per step, gate pre-activations are same-padded convolutions of
the input and the hidden state plus biases; gates i, f, o are sigmoids and
the candidate g is a tanh:

    c' = f * c + i * g
    h' = o * tanh(c')

The cell's output (h', projected back to the input width by a 1x1 map when
the hidden width differs) is added to the feature map as a residual, so a
zero-output cell leaves features bit-identical while its state still
advances.  No peepholes, no normalization; parameters are loaded from a
flat blob or initialized randomly — training lives elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import ParseError, ShapeMismatch, TruncatedFile

SCALE_TAGS = (3, 4, 5)


@dataclass(frozen=True)
class FeatureMap:
    """(D, h, w) real-valued feature map with its pyramid scale tag."""

    values: np.ndarray
    scale: int = 3

    def __post_init__(self):
        if self.values.ndim != 3:
            raise ValueError(f"expected (D,h,w), got {self.values.shape}")


@dataclass(frozen=True)
class ConvLSTMState:
    """Hidden and cell tensors, both (M, h, w)."""

    h: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        if self.h.shape != self.c.shape or self.h.ndim != 3:
            raise ValueError("state tensors must share one (M,h,w) shape")


@dataclass(frozen=True)
class ConvLSTMParams:
    """Gate weights for one cell; gate order along the first axis is i,f,g,o.

    w_x: (4M, D, k, k), w_h: (4M, M, k, k), bias: (4M,).  proj is the (D, M)
    1x1 output projection, present exactly when M != D.
    """

    kernel_size: int
    input_dim: int
    hidden_dim: int
    w_x: np.ndarray
    w_h: np.ndarray
    bias: np.ndarray
    proj: np.ndarray | None = None

    def __post_init__(self):
        k, d, m = self.kernel_size, self.input_dim, self.hidden_dim
        if k < 1 or k % 2 == 0:
            raise ValueError(f"kernel size must be odd, got {k}")
        if self.w_x.shape != (4 * m, d, k, k):
            raise ValueError(f"w_x must be {(4 * m, d, k, k)}, got {self.w_x.shape}")
        if self.w_h.shape != (4 * m, m, k, k):
            raise ValueError(f"w_h must be {(4 * m, m, k, k)}, got {self.w_h.shape}")
        if self.bias.shape != (4 * m,):
            raise ValueError(f"bias must be {(4 * m,)}, got {self.bias.shape}")
        if m == d:
            if self.proj is not None:
                raise ValueError("projection only exists when hidden_dim != input_dim")
        elif self.proj is None or self.proj.shape != (d, m):
            raise ValueError(f"need a {(d, m)} projection when hidden_dim != input_dim")

    @classmethod
    def zeros(cls, input_dim: int, hidden_dim: int, kernel_size: int = 3) -> "ConvLSTMParams":
        m, d, k = hidden_dim, input_dim, kernel_size
        proj = None if m == d else np.zeros((d, m))
        return cls(k, d, m, np.zeros((4 * m, d, k, k)), np.zeros((4 * m, m, k, k)),
                   np.zeros(4 * m), proj)

    @classmethod
    def random(
        cls, input_dim: int, hidden_dim: int, kernel_size: int = 3,
        rng: np.random.Generator | int | None = None, init_scale: float = 0.1,
    ) -> "ConvLSTMParams":
        """Random gate weights; the projection (if any) starts at zero so the
        residual insertion is initially the identity."""
        rng = np.random.default_rng(rng)
        m, d, k = hidden_dim, input_dim, kernel_size
        proj = None if m == d else np.zeros((d, m))
        return cls(
            k, d, m,
            rng.normal(0.0, init_scale, (4 * m, d, k, k)),
            rng.normal(0.0, init_scale, (4 * m, m, k, k)),
            rng.normal(0.0, init_scale, 4 * m),
            proj,
        )


def init_state(spatial: tuple[int, int], params: ConvLSTMParams) -> ConvLSTMState:
    """All-zero memory: the reset state used at every clip boundary."""
    h, w = spatial
    shape = (params.hidden_dim, h, w)
    return ConvLSTMState(np.zeros(shape), np.zeros(shape))


def _conv2d_same(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Same-padded 2D cross-correlation: (Cin,h,w), (Cout,Cin,k,k) -> (Cout,h,w)."""
    k = weights.shape[-1]
    r = k // 2
    # (Cin, h, w, k, k): every output pixel's k x k neighbourhood, as a view.
    patches = np.lib.stride_tricks.sliding_window_view(
        np.pad(x, ((0, 0), (r, r), (r, r))), (k, k), axis=(1, 2))
    return np.tensordot(weights, patches, axes=([1, 2, 3], [0, 3, 4]))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def convlstm_step(
    x: FeatureMap, state: ConvLSTMState, params: ConvLSTMParams
) -> tuple[FeatureMap, ConvLSTMState]:
    """One recurrence step; returns the cell output and the advanced state."""
    d, h, w = x.values.shape
    m = params.hidden_dim
    if d != params.input_dim:
        raise ShapeMismatch(f"input has {d} channels, params expect {params.input_dim}")
    if state.h.shape != (m, h, w):
        raise ShapeMismatch(f"state is {state.h.shape}, expected {(m, h, w)}")
    # One convolution over the stacked [x, h] channels gives every gate's input.
    pre = _conv2d_same(np.concatenate([x.values, state.h], dtype=np.float64),
                       np.concatenate([params.w_x, params.w_h], axis=1))
    pre += params.bias[:, None, None]
    gi = _sigmoid(pre[:m])
    gf = _sigmoid(pre[m : 2 * m])
    gg = np.tanh(pre[2 * m : 3 * m])
    go = _sigmoid(pre[3 * m :])
    c_next = gf * state.c + gi * gg
    h_next = go * np.tanh(c_next)
    out = h_next if params.proj is None else np.tensordot(params.proj, h_next, axes=1)
    return FeatureMap(out, x.scale), ConvLSTMState(h_next, c_next)


def residual_update(
    features: Mapping[int, FeatureMap],
    states: Mapping[int, ConvLSTMState],
    modules: Mapping[int, ConvLSTMParams],
    mask: Iterable[int] = SCALE_TAGS,
) -> tuple[dict[int, FeatureMap], dict[int, ConvLSTMState]]:
    """Per-scale residual update E_i <- E_i + cell_i(E_i, state_i).

    Scales outside `mask` pass through untouched (their states included).
    """
    on = set(mask)
    unknown = on - set(features)
    if unknown:
        raise ValueError(f"mask selects absent scales {sorted(unknown)}")
    missing = [i for i in on if i not in modules or i not in states]
    if missing:
        raise ValueError(f"no module/state for masked-on scales {sorted(missing)}")
    new_features: dict[int, FeatureMap] = {}
    new_states = dict(states)
    for i, feat in features.items():
        if i not in on:
            new_features[i] = feat
            continue
        out, new_states[i] = convlstm_step(feat, states[i], modules[i])
        new_features[i] = FeatureMap(feat.values + out.values, feat.scale)
    return new_features, new_states


# --- flat parameter blob + manifest -----------------------------------------------


def save_params(params: ConvLSTMParams) -> tuple[bytes, str]:
    """A flat little-endian float32 blob and its `name dim ...` manifest lines."""
    named = [("w_x", params.w_x), ("w_h", params.w_h), ("bias", params.bias)]
    if params.proj is not None:
        named.append(("proj", params.proj))
    blob = b"".join(np.ascontiguousarray(a, dtype="<f4").tobytes() for _, a in named)
    manifest = "".join(
        " ".join([name] + [str(d) for d in a.shape]) + "\n" for name, a in named
    )
    return blob, manifest


def load_params(blob: bytes, manifest: str) -> ConvLSTMParams:
    """Inverse of `save_params`; manifest tensors may come in any order."""
    tensors: dict[str, np.ndarray] = {}
    offset = 0
    for lineno, line in enumerate(manifest.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        try:
            name, shape = parts[0], tuple(int(d) for d in parts[1:])
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from exc
        if any(d < 0 for d in shape):
            raise ParseError(lineno, f"negative dimension in tensor {name!r}")
        if name in tensors:
            raise ParseError(lineno, f"tensor {name!r} given twice")
        count = math.prod(shape)
        nbytes = count * 4
        if offset + nbytes > len(blob):
            raise TruncatedFile(f"blob ends inside tensor {name!r}")
        flat = np.frombuffer(blob, "<f4", count=count, offset=offset)
        try:  # an empty tensor can still name a dimension numpy cannot hold
            tensors[name] = flat.reshape(shape).astype(np.float64)
        except ValueError as exc:
            raise ParseError(lineno, f"tensor {name!r}: {exc}") from exc
        offset += nbytes
    if offset != len(blob):
        raise TruncatedFile(f"{len(blob) - offset} trailing bytes after last tensor")
    try:
        w_x, w_h, bias = tensors["w_x"], tensors["w_h"], tensors["bias"]
    except KeyError as exc:
        raise ParseError(0, f"manifest is missing tensor {exc}") from exc
    try:
        four_m, d, k, _ = w_x.shape
        return ConvLSTMParams(k, d, four_m // 4, w_x, w_h, bias, tensors.get("proj"))
    except ValueError as exc:
        raise ShapeMismatch(f"bad parameter shapes: {exc}") from exc
