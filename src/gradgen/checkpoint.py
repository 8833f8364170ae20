"""Binary checkpoint: magic 'GRAD', version, JSON header with an entry table,
then raw little-endian float64 tensor payloads. Round-trips bitwise."""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import ConfigError, RunConfig
from .decoder import DecoderParams, LatentStore, init_decoder_params
from .flow import FlowParams, init_flow_params
from .graphdata.io import atomic_write_bytes
from .tensorcore.optim import AdamState

__all__ = ["Checkpoint", "CheckpointError", "save_checkpoint", "load_checkpoint"]

MAGIC = b"GRAD"
VERSION = 1
PREAMBLE = struct.Struct("<4sIQ")  # magic, version, header length


class CheckpointError(RuntimeError):
    pass


@dataclass
class Checkpoint:
    """Everything needed to resume training or to sample: config snapshot,
    model tensors, optimizer moments, latent store, and progress counters."""

    config: RunConfig
    decoder: DecoderParams
    store: LatentStore
    flow: FlowParams | None = None
    decoder_adam: AdamState = field(default_factory=AdamState)
    flow_adam: AdamState = field(default_factory=AdamState)
    decoder_epochs_done: int = 0
    flow_epochs_done: int = 0
    train_sizes: list[int] = field(default_factory=list)

    def named_tensors(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for name, t in self.decoder.tensors():
            out[f"decoder/{name}"] = t.data
        for key, state in (("decoder", self.decoder_adam), ("flow", self.flow_adam)):
            for kind, table in (("m", state.m), ("v", state.v)):
                for name, arr in table.items():
                    out[f"adam-{kind}/{key}/{name}"] = arr
        for i, z in enumerate(self.store.codes):
            out[f"latent/{i}"] = z
        if self.flow is not None:
            for name, t in self.flow.tensors():
                out[f"flow/{name}"] = t.data
        return out


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    tensors = ckpt.named_tensors()
    entries = []
    offset = 0
    arrays = []
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype="<f8")
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        arrays.append(arr)
        offset += arr.nbytes
    header = {
        "config": asdict(ckpt.config),
        "decoder_epochs_done": ckpt.decoder_epochs_done,
        "flow_epochs_done": ckpt.flow_epochs_done,
        "decoder_adam_step": ckpt.decoder_adam.step,
        "flow_adam_step": ckpt.flow_adam.step,
        "has_flow": ckpt.flow is not None,
        "flow_initialized": ckpt.flow is not None and bool(ckpt.flow.initialized),
        "train_sizes": list(map(int, ckpt.train_sizes)),
        "entries": entries,
    }
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    atomic_write_bytes(path, PREAMBLE.pack(MAGIC, VERSION, len(raw)), raw, *arrays)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        pre = f.read(PREAMBLE.size)
        if not (pre.startswith(MAGIC) or MAGIC.startswith(pre)):
            raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
        if len(pre) < PREAMBLE.size:
            raise CheckpointError(f"{path}: truncated preamble ({len(pre)} of {PREAMBLE.size} bytes)")
        _, version, hlen = PREAMBLE.unpack(pre)
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        raw = f.read(hlen)
        if len(raw) < hlen:
            raise CheckpointError(f"{path}: truncated header ({len(raw)} of {hlen} bytes)")
        try:
            header = json.loads(raw.decode("utf-8"))
        except ValueError as e:
            raise CheckpointError(f"{path}: truncated or corrupt header ({e})") from e
        # the payload's length is the file's; each tensor is read straight
        # into its own array, so a load holds one copy of the tensors
        base = f.tell()
        payload_len = os.fstat(f.fileno()).st_size - base
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: header is a JSON {type(header).__name__}, not an object")

        def field(key: str):
            if key not in header:
                raise CheckpointError(f"{path}: header has no '{key}'")
            check, want = HEADER_FIELDS[key]
            if not check(header[key]):
                raise CheckpointError(f"{path}: header field '{key}' must be {want}, got {header[key]!r}")
            return header[key]

        def read_entry(i: int, entry) -> tuple[str, tuple[tuple[int, ...], int]]:
            if not isinstance(entry, dict):
                raise CheckpointError(f"{path}: entry {i} is a JSON {type(entry).__name__}, not an object")
            for key in ("name", "shape", "offset"):
                if key not in entry:
                    raise CheckpointError(f"{path}: entry {i} has no '{key}'")
            name, shape, start = entry["name"], entry["shape"], entry["offset"]
            counts = isinstance(shape, list) and all(map(_is_count, shape)) and _is_count(start)
            if not (isinstance(name, str) and counts):
                raise CheckpointError(
                    f"{path}: entry {i} needs a string name and non-negative integer shape and offset, got {entry!r}"
                )
            end = start + 8 * math.prod(shape)
            if end > payload_len:
                raise CheckpointError(
                    f"{path}: truncated payload: tensor {name} ends at byte {end}, payload has {payload_len}"
                )
            return name, (tuple(shape), start)

        table = {}
        for i, entry in enumerate(field("entries")):
            name, where = read_entry(i, entry)
            if name in table:
                raise CheckpointError(f"{path}: entry {i} repeats tensor {name}")
            table[name] = where

        def tensor(name: str, shape: tuple[int, ...]) -> np.ndarray:
            if name not in table:
                raise CheckpointError(f"{path}: missing tensor {name}")
            stored, start = table[name]
            if stored != shape:
                raise CheckpointError(
                    f"{path}: tensor {name} has shape {stored}, expected {shape} (config/schema mismatch)"
                )
            arr = np.empty(shape, "<f8")
            f.seek(base + start)
            got = f.readinto(arr)
            if got != arr.nbytes:
                raise CheckpointError(f"{path}: truncated payload: tensor {name} read {got} of {arr.nbytes} bytes")
            return arr.astype(np.float64, copy=False)

        try:
            cfg = RunConfig(**field("config")).validate()
        except (TypeError, ConfigError) as e:
            raise CheckpointError(f"{path}: bad config ({e})") from e
        sizes = field("train_sizes")
        initialized = field("flow_initialized")
        flow = None
        if field("has_flow"):
            flow = init_flow_params(cfg, None)
            flow.initialized = initialized
        ckpt = Checkpoint(
            config=cfg,
            decoder=init_decoder_params(cfg, None),
            store=LatentStore([tensor(f"latent/{i}", (n, cfg.d)) for i, n in enumerate(sizes)]),
            flow=flow,
            decoder_adam=AdamState(step=field("decoder_adam_step")),
            flow_adam=AdamState(step=field("flow_adam_step")),
            decoder_epochs_done=field("decoder_epochs_done"),
            flow_epochs_done=field("flow_epochs_done"),
            train_sizes=list(sizes),
        )
        if flow is None and ckpt.flow_adam.step > 0:
            raise CheckpointError(f"{path}: 'flow_adam_step' is {ckpt.flow_adam.step} but the checkpoint has no flow")
        # adam_step creates both moments of every parameter on its first step
        for key, params, adam in (("decoder", ckpt.decoder, ckpt.decoder_adam), ("flow", flow, ckpt.flow_adam)):
            for name, t in params.tensors() if params is not None else ():
                t.data = tensor(f"{key}/{name}", t.data.shape)
                if adam.step > 0:
                    adam.m[name] = tensor(f"adam-m/{key}/{name}", t.data.shape)
                    adam.v[name] = tensor(f"adam-v/{key}/{name}", t.data.shape)
        return ckpt


def _is_count(value) -> bool:
    """A non-negative JSON integer (bools excluded)."""
    return type(value) is int and value >= 0


_COUNT = (_is_count, "a non-negative integer")
_FLAG = (lambda v: type(v) is bool, "true or false")

# Every header field: a test of its JSON value, and what the test asks for.
HEADER_FIELDS = {
    "config": (lambda v: isinstance(v, dict), "an object"),
    "decoder_adam_step": _COUNT,
    "decoder_epochs_done": _COUNT,
    "entries": (lambda v: isinstance(v, list), "a list"),
    "flow_adam_step": _COUNT,
    "flow_epochs_done": _COUNT,
    "flow_initialized": _FLAG,
    "has_flow": _FLAG,
    "train_sizes": (
        lambda v: isinstance(v, list) and all(_is_count(n) and n > 0 for n in v),
        "a list of positive integers",
    ),
}
