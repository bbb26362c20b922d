"""Binary checkpoint format.

Layout (all little-endian): magic ``HGCL``, u32 format version, u32 m/n/d/k/L,
length-prefixed config snapshot, the external-id remap tables, then the named
parameter arrays in declared order, each preceded by a name + shape header.
Floats are always stored as 64-bit regardless of training precision, so a
save/load round trip is bit-identical.
"""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import param_order

MAGIC = b"HGCL"
VERSION = 1


class CheckpointError(RuntimeError):
    pass


@dataclass
class Checkpoint:
    m: int
    n: int
    dim: int
    rank: int
    layers: int
    config_text: str
    user_ids: np.ndarray
    item_ids: np.ndarray
    params: dict[str, np.ndarray]  # insertion order == declared order


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    parts: list[bytes] = [MAGIC,
                          struct.pack("<6I", VERSION, ckpt.m, ckpt.n,
                                      ckpt.dim, ckpt.rank, ckpt.layers)]
    cfg = ckpt.config_text.encode("utf-8")
    parts.append(struct.pack("<Q", len(cfg)))
    parts.append(cfg)
    for ids in (ckpt.user_ids, ckpt.item_ids):
        ids = np.asarray(ids, dtype="<i8")
        parts.append(struct.pack("<Q", ids.size))
        parts.append(ids.tobytes())
    parts.append(struct.pack("<I", len(ckpt.params)))
    for name, arr in ckpt.params.items():
        encoded = name.encode("utf-8")
        arr64 = np.asarray(arr, dtype="<f8")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<B", arr64.ndim))
        parts.append(struct.pack(f"<{arr64.ndim}Q", *arr64.shape) if arr64.ndim else b"")
        parts.append(arr64.tobytes())
    # Write beside the target and rename over it, so a crash mid-write leaves
    # the previous checkpoint intact.
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(b"".join(parts))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # left only when the write failed


class _Reader:
    def __init__(self, data: bytes, path):
        self.data = data
        self.path = path
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        out = self.data[self.pos:self.pos + count]
        self.pos += count
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, count: int, what: str) -> str:
        try:
            return self.take(count).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{self.path}: {what} is not UTF-8 ({exc})") from None


def load_checkpoint(path: str | Path) -> Checkpoint:
    reader = _Reader(Path(path).read_bytes(), path)
    if reader.take(4) != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    version, m, n, dim, rank, layers = reader.unpack("<6I")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    (cfg_len,) = reader.unpack("<Q")
    config_text = reader.text(cfg_len, "the config snapshot")
    ids = []
    for _ in range(2):
        (count,) = reader.unpack("<Q")
        ids.append(np.frombuffer(reader.take(count * 8), dtype="<i8").copy())
    (n_arrays,) = reader.unpack("<I")
    params: dict[str, np.ndarray] = {}
    for _ in range(n_arrays):
        (name_len,) = reader.unpack("<H")
        name = reader.text(name_len, "a parameter name")
        (ndim,) = reader.unpack("<B")
        shape = reader.unpack(f"<{ndim}Q")
        count = math.prod(shape)  # a Python int: np.prod would wrap a huge shape
        params[name] = np.frombuffer(reader.take(count * 8), dtype="<f8").copy().reshape(shape)
    if reader.pos != len(reader.data):
        raise CheckpointError(f"{path}: trailing bytes after parameter arrays")
    declared = dict(param_order(dim, rank, m, n))
    for name in [*declared, *(k for k in params if k not in declared)]:
        have = params[name].shape if name in params else "missing"
        want = declared.get(name, "absent")
        if have != want:
            raise CheckpointError(f"{path}: parameter '{name}' is {have} in the checkpoint "
                                  f"but {want} in the model")
    for table, count, limit in (("user_ids", ids[0].size, m), ("item_ids", ids[1].size, n)):
        if count > limit:
            raise CheckpointError(f"{path}: id table '{table}' has {count} entries for {limit} nodes")
    return Checkpoint(m=m, n=n, dim=dim, rank=rank, layers=layers,
                      config_text=config_text, user_ids=ids[0], item_ids=ids[1],
                      params=params)
