"""Binary checkpoint: magic 'GRAD', version, JSON header with an entry table,
then raw little-endian float64 tensor payloads. Round-trips bitwise."""

from __future__ import annotations

import json
import os
import struct
import tempfile
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import ConfigError, RunConfig
from .decoder import DecoderParams, LatentStore, init_decoder_params
from .flow import FlowParams, init_flow_params
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
    blobs = []
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype="<f8")
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(arr.tobytes())
        offset += arr.nbytes
    header = {
        "config": asdict(ckpt.config),
        "seed": ckpt.config.seed,
        "mode": ckpt.config.mode,
        "decoder_epochs_done": ckpt.decoder_epochs_done,
        "flow_epochs_done": ckpt.flow_epochs_done,
        "decoder_adam_step": ckpt.decoder_adam.step,
        "flow_adam_step": ckpt.flow_adam.step,
        "has_flow": ckpt.flow is not None,
        "flow_initialized": bool(ckpt.flow.initialized) if ckpt.flow is not None else False,
        "n_latents": len(ckpt.store.codes),
        "train_sizes": list(map(int, ckpt.train_sizes)),
        "entries": entries,
    }
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".ckpt")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(PREAMBLE.pack(MAGIC, VERSION, len(raw)))
            f.write(raw)
            for blob in blobs:
                f.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
        payload = f.read()

    def read_entry(i: int, entry) -> tuple[str, np.ndarray]:
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
        shape = tuple(shape)
        count = int(np.prod(shape)) if shape else 1
        if start + 8 * count > len(payload):
            raise CheckpointError(
                f"{path}: truncated payload: tensor {name} ends at byte {start + 8 * count}, "
                f"payload has {len(payload)}"
            )
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=start)
        return name, arr.reshape(shape).astype(np.float64)

    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is a JSON {type(header).__name__}, not an object")

    def field(key):
        if key not in header:
            raise CheckpointError(f"{path}: header has no '{key}'")
        return header[key]

    entries = field("entries")
    if not isinstance(entries, list):
        raise CheckpointError(f"{path}: 'entries' is a JSON {type(entries).__name__}, not a list")
    table = dict(read_entry(i, e) for i, e in enumerate(entries))
    try:
        cfg = RunConfig(**field("config")).validate()
    except (TypeError, ConfigError) as e:
        raise CheckpointError(f"{path}: bad config ({e})") from e

    def tensor(key: str) -> np.ndarray:
        if key not in table:
            raise CheckpointError(f"{path}: missing tensor {key}")
        return table[key]

    decoder = init_decoder_params(cfg, np.random.default_rng(0))
    _fill("decoder", decoder.tensors(), tensor, path)
    store = LatentStore([tensor(f"latent/{i}") for i in range(field("n_latents"))])
    flow = None
    if field("has_flow"):
        flow = init_flow_params(cfg, np.random.default_rng(0))
        _fill("flow", flow.tensors(), tensor, path)
        flow.initialized = field("flow_initialized")
    decoder_adam = _load_adam(table, "decoder", field("decoder_adam_step"))
    flow_adam = _load_adam(table, "flow", field("flow_adam_step"))
    return Checkpoint(
        config=cfg,
        decoder=decoder,
        store=store,
        flow=flow,
        decoder_adam=decoder_adam,
        flow_adam=flow_adam,
        decoder_epochs_done=field("decoder_epochs_done"),
        flow_epochs_done=field("flow_epochs_done"),
        train_sizes=list(field("train_sizes")),
    )


def _is_count(value) -> bool:
    """A non-negative JSON integer (bools excluded)."""
    return type(value) is int and value >= 0


def _fill(prefix: str, named, tensor, path) -> None:
    for name, t in named:
        key = f"{prefix}/{name}"
        arr = tensor(key)
        if arr.shape != t.data.shape:
            raise CheckpointError(
                f"{path}: tensor {key} has shape {arr.shape}, expected {t.data.shape} "
                "(config/schema mismatch)"
            )
        t.data = arr


def _load_adam(table: dict[str, np.ndarray], key: str, step: int) -> AdamState:
    state = AdamState(step=step)
    pm = f"adam-m/{key}/"
    pv = f"adam-v/{key}/"
    for name, arr in table.items():
        if name.startswith(pm):
            state.m[name[len(pm):]] = arr.copy()
        elif name.startswith(pv):
            state.v[name[len(pv):]] = arr.copy()
    return state
