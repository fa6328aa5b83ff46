"""Plain-text, full-precision serialization of plants and mask sets.

Line-oriented format, space-separated tokens, floats as C99 hex literals
(lossless round trip).  Layout:

    format echotrain-system 1
    dt <hex>
    nonlinearity rectifier | identity | clip <lo> <hi>
    noise <snr_db> <on_forward:0|1> <on_backward:0|1>          (optional)
    backward_path <peak|none> <scale> <clip:0|1>               (optional)
    kernel <name> <rows> <cols> <taps>
    <one line per tap: rows*cols hex floats, row-major>
    ...
    maskset <dim_x> <dim_y> <period>                           (optional)
    m / u: one line per mask sample, row-major; s_b per sample; y_b one line
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .masking import MaskSet
from .signal import Kernel, _positive_dt
from .system import KERNELS, BackwardPath, NoiseModel, Nonlinearity, PhysicalSystem

_FORMAT_LINE = "format echotrain-system 1"
# tokens of each one-line record, its tag included ("nonlinearity clip <lo> <hi>": 4)
_WIDTHS = {"dt": 2, "nonlinearity": 2, "noise": 4, "backward_path": 4, "kernel": 5, "maskset": 4}


def _hex(v: float) -> str:
    return float(v).hex()


def _hexrow(values) -> str:
    return " ".join(_hex(v) for v in np.asarray(values, dtype=np.float64).ravel())


def _parse_row(tokens, count: int) -> np.ndarray:
    if len(tokens) != count:
        raise ValueError(f"expected {count} values, got {len(tokens)}")
    return np.array([float.fromhex(t) for t in tokens])


def _flag(token: str) -> bool:
    if token not in ("0", "1"):
        raise ValueError(f"expected a 0/1 flag, got {token!r}")
    return token == "1"


def _check_masks(system: PhysicalSystem, masks: MaskSet) -> None:
    """A mask set stored with a plant drives it: the same dt and channel counts."""
    if masks.dt != system.dt:
        raise ConfigurationError("mask dt must match the system dt")
    if (masks.n_in, masks.n_out) != (system.n_inputs, system.n_outputs):
        raise ConfigurationError(f"mask set has {masks.n_in} input and {masks.n_out} output "
                                 f"channels, the plant {system.n_inputs} and {system.n_outputs}")


def save_system(path, system: PhysicalSystem, masks: MaskSet | None = None) -> None:
    lines = [_FORMAT_LINE, f"dt {_hex(system.dt)}"]
    f = system.f
    if f.kind == "clip":
        lines.append(f"nonlinearity clip {_hex(f.lo)} {_hex(f.hi)}")
    else:
        lines.append(f"nonlinearity {f.kind}")
    if system.noise is not None:
        nz = system.noise
        lines.append(f"noise {_hex(nz.snr_db)} {int(nz.on_forward)} {int(nz.on_backward)}")
    if system.backward_path is not None:
        bp = system.backward_path
        peak = "none" if bp.normalize_peak is None else _hex(bp.normalize_peak)
        lines.append(f"backward_path {peak} {_hex(bp.scale)} {int(bp.clip)}")
    for name in KERNELS:
        k: Kernel = getattr(system, name)
        lines.append(f"kernel {name} {k.rows} {k.cols} {k.length}")
        for tap in k.taps:
            lines.append(_hexrow(tap))
    if masks is not None:
        _check_masks(system, masks)
        lines.append(f"maskset {masks.dim_x} {masks.dim_y} {masks.period}")
        lines.append(f"mask_channels {masks.n_in} {masks.n_out}")
        for t in range(masks.period):
            lines.append("m " + _hexrow(masks.m[:, :, t]))
        for t in range(masks.period):
            lines.append("sb " + _hexrow(masks.s_b[:, t]))
        for t in range(masks.period):
            lines.append("u " + _hexrow(masks.u[:, :, t]))
        lines.append("yb " + _hexrow(masks.y_b))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_system(path):
    """Returns (PhysicalSystem, MaskSet | None).

    Any malformed content raises ConfigurationError naming the file and the
    line at fault: the record's first line for a bad value or an inconsistent
    record, the last line when records are missing.
    """
    lines = []
    with open(path, "rb") as fh:
        for no, raw in enumerate(fh, 1):
            try:
                tok = raw.decode("utf-8").split()
            except UnicodeDecodeError:
                raise ConfigurationError(f"{path}:{no}: not UTF-8 text") from None
            if tok:
                lines.append((no, tok))
    if not lines or " ".join(lines[0][1]) != _FORMAT_LINE:
        raise ConfigurationError(
            f"{path}:{lines[0][0] if lines else 1}: not an echotrain system file")
    at = 0  # index into lines of the line being parsed

    def line(i, tag=None):
        """Tokens of lines[i] (after its leading tag, which must match)."""
        nonlocal at
        if i >= len(lines):
            at = len(lines) - 1
            raise ValueError("unexpected end of file")
        at = i
        tok = lines[i][1]
        if tag is None:
            return tok
        if tok[0] != tag:
            raise ValueError(f"expected a {tag!r} record, got {tok[0]!r}")
        return tok[1:]

    dt = f = noise = backward_path = masks = kernel_at = None
    kernels = {}
    i = 1
    try:
        while i < len(lines):
            tok = line(i)
            key = tok[0]
            width = 4 if tok[:2] == ["nonlinearity", "clip"] else _WIDTHS.get(key, len(tok))
            if len(tok) > width:
                raise ValueError(f"unexpected token {tok[width]!r} after the {key} record")
            if key in ("kernel", "maskset") and dt is None:
                raise ValueError(f"{key} record before the dt record")
            if key == "dt":
                dt = _positive_dt(float.fromhex(tok[1]))
                i += 1
            elif key == "nonlinearity":
                if tok[1] == "clip":
                    f = Nonlinearity.clip(float.fromhex(tok[2]), float.fromhex(tok[3]))
                else:
                    f = Nonlinearity(tok[1])
                i += 1
            elif key == "noise":
                noise = NoiseModel(float.fromhex(tok[1]), _flag(tok[2]), _flag(tok[3]))
                i += 1
            elif key == "backward_path":
                peak = None if tok[1] == "none" else float.fromhex(tok[1])
                backward_path = BackwardPath(peak, float.fromhex(tok[2]), _flag(tok[3]))
                i += 1
            elif key == "kernel":
                name, rows, cols, L = tok[1], int(tok[2]), int(tok[3]), int(tok[4])
                if name not in KERNELS:
                    raise ValueError(f"unknown kernel {name!r}")
                taps = [_parse_row(line(i + 1 + k), rows * cols) for k in range(L)]
                at = i  # a bad tap array as a whole is the record's fault
                kernels[name] = Kernel(np.array(taps).reshape(L, rows, cols), dt)
                kernel_at = i
                i += 1 + L
            elif key == "maskset":
                dim_x, dim_y, period = int(tok[1]), int(tok[2]), int(tok[3])
                n_in, n_out = (int(t) for t in line(i + 1, "mask_channels"))
                base = i + 2
                rows = [_parse_row(line(base + t, "m"), n_in * dim_x) for t in range(period)]
                m = np.stack(rows, axis=-1).reshape(n_in, dim_x, period)
                rows = [_parse_row(line(base + period + t, "sb"), n_in) for t in range(period)]
                s_b = np.stack(rows, axis=-1)
                rows = [_parse_row(line(base + 2 * period + t, "u"), dim_y * n_out)
                        for t in range(period)]
                u = np.stack(rows, axis=-1).reshape(dim_y, n_out, period)
                y_b = _parse_row(line(base + 3 * period, "yb"), dim_y)
                at = masks_at = i
                masks = MaskSet(m=m, u=u, s_b=s_b, y_b=y_b, period=period, dt=dt)
                i = base + 3 * period + 1
            else:
                raise ValueError(f"unknown record {key!r}")
        at = len(lines) - 1
        missing = [k for k in KERNELS if k not in kernels]
        missing += [name for name, value in (("dt", dt), ("nonlinearity", f)) if value is None]
        if missing:
            raise ValueError(f"file ends without {missing}")
        # plant-wide checks (shapes, causality, dt) fall on the last kernel record
        at = kernel_at
        system = PhysicalSystem(*(kernels[k] for k in KERNELS), f,
                                noise=noise, backward_path=backward_path)
        if masks is not None:  # a mask set that cannot drive the plant is its record's fault
            at = masks_at
            _check_masks(system, masks)
    except IndexError:
        raise ConfigurationError(f"{path}:{lines[at][0]}: record is missing a value") from None
    except (ValueError, ArithmeticError) as exc:
        raise ConfigurationError(f"{path}:{lines[at][0]}: {exc}") from None
    return system, masks
